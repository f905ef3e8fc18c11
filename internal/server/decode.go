package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"slices"
)

// decodeSpec decodes a JSON request body into kind's view of spec
// (JobSpec.fields): encoding/json, unknown fields refused, the first
// value read and any bytes after it ignored. It defines what a JSON body
// means; decodeSortBody only takes a fast path to the same result.
func decodeSpec(r io.Reader, kind string, spec *JobSpec) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	return dec.Decode(spec.fields(kind))
}

// decodeSortBody decodes a POST /v1/sort JSON body with decodeSpec's
// result and error. sizeHint (the Content-Length, or below zero when
// unknown) presizes, up to maxPresize, the one buffer the body is read
// into. The body is read to its end (or the limit) before any of it is
// parsed, where json.Decoder stopped reading once its first value ended.
//
// A body whose object opens with the member "keys", spelled exactly and
// holding plain decimal uint32s, has that array parsed in place; the
// rest of the object is the residual that decodeSpec decodes. Anything
// else — a read error such as the body limit, another first member, a
// key element json would reject or that needs a conversion, a rest that
// might name "keys" again — and any residual that fails, is decodeSpec
// over the same bytes, so the fast path never has to reproduce
// encoding/json's errors.
func decodeSortBody(r io.Reader, sizeHint int64, spec *JobSpec) error {
	body, rerr := readBody(r, sizeHint)
	if rerr == nil {
		if keys, residual, ok := splitKeys(body); ok {
			if decodeSpec(bytes.NewReader(residual), KindSort, spec) == nil {
				spec.Keys = keys
				return nil
			}
			*spec = JobSpec{}
		}
	}
	// Replay the bytes read, then the read error: json.Decoder reads
	// until its first value ends, so a body whose first value ends
	// before the limit still decodes.
	var src io.Reader = bytes.NewReader(body)
	if rerr != nil {
		src = io.MultiReader(src, errReader{rerr})
	}
	return decodeSpec(src, KindSort, spec)
}

type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// maxPresize caps the buffer readBody allocates from a size hint before
// any byte arrives: the hint is the client's claimed Content-Length, and
// a request that claims the body limit and then stalls must not hold that
// much. A 50k-key default request (~0.55 MB) fits in one buffer; a larger
// body grows the buffer by doubling as its bytes arrive.
const maxPresize = 1 << 20

// readBody reads r to EOF into one buffer presized to sizeHint+1 bytes,
// capped at maxPresize (the +1 lets the final read see EOF without
// growing it), returning what was read and the first error other than
// io.EOF.
func readBody(r io.Reader, sizeHint int64) ([]byte, error) {
	if sizeHint < 0 {
		sizeHint = 512
	}
	buf := make([]byte, 0, min(sizeHint+1, maxPresize))
	for {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, cap(buf))
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// splitKeys cuts a leading "keys" member out of a body's top-level
// object: the keys, and the residual object of the members after it (and
// any bytes after the object, which decodeSpec ignores as it ignores
// them in the whole body). ok is false for any body it does not take
// (see decodeSortBody).
func splitKeys(b []byte) (keys []uint32, residual []byte, ok bool) {
	i := skipSpace(b, 0)
	if i == len(b) || b[i] != '{' {
		return nil, nil, false
	}
	i = skipSpace(b, i+1)
	if !bytes.HasPrefix(b[i:], []byte(`"keys"`)) {
		return nil, nil, false
	}
	if i = skipSpace(b, i+len(`"keys"`)); i == len(b) || b[i] != ':' {
		return nil, nil, false
	}
	if keys, i, ok = parseKeys(b, skipSpace(b, i+1)); !ok {
		return nil, nil, false
	}
	// The object closes here, or a comma leads to its next member.
	if i = skipSpace(b, i); i < len(b) && b[i] == ',' {
		if i = skipSpace(b, i+1); i == len(b) || b[i] != '"' {
			return nil, nil, false
		}
	} else if i == len(b) || b[i] != '}' {
		return nil, nil, false
	}
	if mayNameKeys(b[i:]) {
		return nil, nil, false
	}
	return keys, append([]byte{'{'}, b[i:]...), true
}

// mayNameKeys reports whether b might hold a member name that
// encoding/json matches to "keys", which would overwrite the keys parsed
// first: an escape, a non-ASCII byte (json folds names, the Kelvin sign
// and long s included) or a quoted "keys" in any ASCII case.
func mayNameKeys(b []byte) bool {
	for i, c := range b {
		if c == '\\' || c >= 0x80 ||
			c == '"' && i+5 < len(b) && b[i+5] == '"' && bytes.EqualFold(b[i+1:i+5], []byte("keys")) {
			return true
		}
	}
	return false
}

// parseKeys parses the array at b[i] when every element is a decimal
// 0|[1-9][0-9]* no larger than MaxUint32 and the array is not empty,
// returning the index past its closing bracket.
func parseKeys(b []byte, i int) ([]uint32, int, bool) {
	if i == len(b) || b[i] != '[' {
		return nil, 0, false
	}
	i++
	n := 1
	if end := bytes.IndexByte(b[i:], ']'); end >= 0 {
		n += bytes.Count(b[i:i+end], []byte{','})
	}
	keys := make([]uint32, 0, n)
	for i = skipSpace(b, i); i < len(b); i = skipSpace(b, i+1) {
		start := i
		var v uint64
		for ; i < len(b) && i-start < 10 && isDigit(b[i]); i++ {
			v = v*10 + uint64(b[i]-'0')
		}
		// Reject the empty, leading-zero, over-long, fractional and
		// exponent forms, and values past MaxUint32.
		if i == start || b[start] == '0' && i-start > 1 || v > math.MaxUint32 {
			return nil, 0, false
		}
		if i < len(b) && (isDigit(b[i]) || b[i] == '.' || b[i] == 'e' || b[i] == 'E') {
			return nil, 0, false
		}
		keys = append(keys, uint32(v))
		if i = skipSpace(b, i); i == len(b) {
			return nil, 0, false
		}
		if b[i] == ']' {
			return keys, i + 1, true
		}
		if b[i] != ',' {
			return nil, 0, false
		}
	}
	return nil, 0, false
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }
