package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"

	"approxsort/internal/dataset"
)

// sortBody is a POST /v1/sort body shaped like perfbench's in-memory
// request: the keys first, then the default request's other fields.
func sortBody(t testing.TB, keys []uint32) []byte {
	t.Helper()
	body, err := json.Marshal(struct {
		Keys       []uint32 `json:"keys"`
		Algorithm  string   `json:"algorithm"`
		Mode       string   `json:"mode"`
		Backend    string   `json:"backend"`
		T          float64  `json:"t"`
		Seed       uint64   `json:"seed"`
		ReturnKeys bool     `json:"return_keys"`
	}{keys, "auto", "auto", "pcm-mlc", 0.055, 12345, true})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// limitReader yields body[:cut] and then the body-limit error, as
// http.MaxBytesReader does for a body longer than its limit; a cut past
// the body yields the whole body and io.EOF.
func limitReader(body []byte, cut int) io.Reader {
	if cut >= len(body) {
		return bytes.NewReader(body)
	}
	return io.MultiReader(bytes.NewReader(body[:cut]), errReader{&http.MaxBytesError{Limit: int64(cut)}})
}

// FuzzDecodeSortBody holds decodeSortBody to decodeSpec, the plain
// encoding/json decode of a POST /v1/sort body: for any body, cut short
// by a body-limit error at any point, both give the same error text (or
// none) and a deep-equal JobSpec. The reference reads one byte at a
// time, so a difference in how the body arrives cannot hide one.
func FuzzDecodeSortBody(f *testing.F) {
	seeds := []string{
		// The default request and its key spellings.
		`{"keys":[3,1,2],"algorithm":"auto","mode":"auto","backend":"pcm-mlc","t":0.055,"seed":7,"return_keys":true}`,
		`{"algorithm":"auto","keys":[0,4294967295],"seed":1}`,
		`{"keys":[1]}`,
		`{"KEYS":[1,2]}`,
		`{"Keys":[1,2]}`,
		`{"keys":[1],"KEYS":[2]}`,
		`{"keys":[1],"Keys":[2]}`,
		"{\"\u212aeys\":[1,2]}",
		"{\"keys\":[1],\"\u212aeys\":[2]}",
		"{\"keyſ\":[1]}",
		`{"k\u0065ys":[1]}`,
		`{"keys":[1],"k\u0065ys":[2]}`,
		`{"keys":[1],"return_keys":true,"kEyS":[2]}`,
		`{"keys":[1],"algorithm":"keys"}`,
		`{"keys":[1],"seed":2} "keys"`,
		`{"keys":[1] , }`,
		`{"keys":[1],,"seed":2}`,
		// Duplicates, null and empty arrays.
		`{"keys":[1],"keys":[2]}`,
		`{"keys":null}`,
		`{"keys":[]}`,
		`{"keys":[1],"keys":null}`,
		// Elements json rejects or converts.
		`{"keys":[-0]}`,
		`{"keys":[-1]}`,
		`{"keys":[01]}`,
		`{"keys":[00]}`,
		`{"keys":[1.0]}`,
		`{"keys":[1e3]}`,
		`{"keys":[1E3]}`,
		`{"keys":[4294967295]}`,
		`{"keys":[4294967296]}`,
		`{"keys":[9999999999]}`,
		`{"keys":[1234567890123456789012345]}`,
		`{"keys":["1"]}`,
		`{"keys":[1,]}`,
		`{"keys":[,1]}`,
		`{"keys":[true]}`,
		`{"keys":[[1]]}`,
		`{"keys":{"a":1}}`,
		`{"keys":1}`,
		// Nested members copied to the residual.
		`{"keys":[2,1],"params":{"t":0.07,"saving":1e-3},"backend":"pcm-mlc"}`,
		`{"keys":[2,1],"params":{"t":"x"}}`,
		`{"keys":[2,1],"params":{"a":{"b":[1,{"c":"]}"}]}}}`,
		`{"dataset":{"kind":"uniform","n":10,"seed":3},"keys":[1]}`,
		`{"dataset":{"kind":"uniform","n":10},"return_keys":true}`,
		`{"keys":[1],"dataset":null,"algorithm":"a\"b\\","seed":18446744073709551615}`,
		`{"keys":[1],"seed":-1}`,
		`{"keys":[1],"algorithm":"msd","Algorithm":"lsd"}`,
		`{"keys":[1],"params":{"t":1}]}`,
		`{"keys":[1],"params":[1}}`,
		`{"keys":[1],"mode":tru}`,
		`{"keys":[1],"mode":"x" "y"}`,
		`{"keys":[1],"bogus":1}`,
		// Whitespace, trailing bytes, truncation, empty, BOM.
		" \t\r\n{ \"keys\" : [ 1 , 2 ] , \"seed\" : 3 } \n",
		`{"keys":[1,2]}garbage`,
		`{"keys":[1,2]}{"keys":[3]}`,
		`{"keys":[1,2],"seed":`,
		`{"keys":[1,2`,
		`{"keys":[1,2]`,
		`{"keys"`,
		`{`,
		``,
		"\xef\xbb\xbf{\"keys\":[1]}",
		`[1,2]`,
		`null`,
		`{}`,
		`{"keys":[1],}`,
		`{"keys":[1] "seed":2}`,
		"{\"keys\":[1],\"mode\":\"a\x01\"}",
		"{\"ke\x01ys\":[1]}",
	}
	// Every JSON body of TestHTTPContract.
	seeds = append(seeds,
		`{"keys":[2,1],"run_size":4}`,
		`{"keys":[2,1],"run_size":0}`,
		`{"keys":[2,1],"fan_in":4}`,
		`{"keys":[2,1],"formation":"chunk"}`,
		`{"keys":[2,1],"refine_at_merge":true}`,
		`{"keys":[2,1],"max_disk_bytes":9}`,
		`{"keys":[2,1],"tenant":"a"}`,
		`{"keys":[2,1],"max_shards":1}`,
		`{"keys":[2,1],"warm_tables":true}`,
		`{"keys":[2,1]}`,
		`{"dataset":{"n":10},"return_keys":true}`,
		`{"dataset":{"n":10},"tenant":""}`,
		`{"dataset":{"n":10},"max_shards":1}`,
		`{"dataset":{"n":10},"warm_tables":true}`,
		`{"dataset":{"n":10},"return_keys":false}`,
		`{"keys":[2,1],"bogus":1}`,
		`{"keys":[2,1],"algorithm":"msd","bits":4,"mode":"hybrid","backend":"pcm-mlc","params":{"t":0.07},"seed":3,"return_keys":true}`,
		`{"dataset":{"n":100},"algorithm":"msd","bits":4,"mode":"hybrid","backend":"pcm-mlc","t":0.07,"seed":3,"run_size":50,"fan_in":2,"formation":"chunk","refine_at_merge":true,"max_disk_bytes":100000}`,
		`{"dataset":{"n":100},"algorithm":"msd","bits":4,"mode":"hybrid","t":0.07,"seed":3,"run_size":50,"fan_in":2,"formation":"chunk","refine_at_merge":true,"max_disk_bytes":100000,"tenant":"a","max_shards":1,"warm_tables":true}`,
	)
	for _, s := range seeds {
		f.Add([]byte(s), uint16(len(s)))
		if len(s) > 4 {
			f.Add([]byte(s), uint16(len(s)-4))
			f.Add([]byte(s+"   "), uint16(len(s)+1))
		}
	}
	f.Fuzz(func(t *testing.T, body []byte, cut uint16) {
		var got, want JobSpec
		gotErr := decodeSortBody(limitReader(body, int(cut)), int64(len(body)), &got)
		wantErr := decodeSpec(iotest.OneByteReader(limitReader(body, int(cut))), KindSort, &want)
		if errText(gotErr) != errText(wantErr) {
			t.Fatalf("body %+q cut %d: error %q, want %q", body, cut, errText(gotErr), errText(wantErr))
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("body %+q cut %d:\n got %+v\nwant %+v", body, cut, got, want)
		}
	})
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// TestDecodeSortBodyFastPath pins which bodies take the one-pass parse:
// the default request, which opens with its keys, in any spacing, and
// not one the reference decoder would have to fold, convert or reject,
// nor one whose later members might name the keys again.
func TestDecodeSortBodyFastPath(t *testing.T) {
	keys := dataset.Uniform(1000, 5)
	for _, tc := range []struct {
		name string
		body string
		fast bool
	}{
		{"perfbench", string(sortBody(t, keys)), true},
		{"spaced", " {\n \"keys\" : [ 0, 7 ,4294967295 ] , \"seed\":3, \"params\":{\"t\":0.07} }", true},
		{"trailing", `{"keys":[1]} {`, true},
		{"keys-last", `{"seed":3,"keys":[1]}`, false},
		{"named-again", `{"keys":[1],"algorithm":"KEYS"}`, false},
		{"escape-after", `{"keys":[1],"algorithm":"a\"b"}`, false},
		{"dataset", `{"dataset":{"n":10}}`, false},
		{"folded", `{"Keys":[1]}`, false},
		{"leading-zero", `{"keys":[01]}`, false},
		{"range", `{"keys":[4294967296]}`, false},
		{"truncated", `{"keys":[1]`, false},
	} {
		_, _, fast := splitKeys([]byte(tc.body))
		if fast != tc.fast {
			t.Errorf("%s: fast path = %v, want %v", tc.name, fast, tc.fast)
		}
	}

	var spec JobSpec
	if err := decodeSortBody(bytes.NewReader(sortBody(t, keys)), -1, &spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.Keys, keys) || spec.Algorithm != "auto" || spec.Seed != 12345 || !spec.ReturnKeys {
		t.Errorf("decoded %+v", spec.Common)
	}
}

// TestDecodeSortBodyLimit pins the body limit through the handler's own
// reader: a body over the limit fails with *http.MaxBytesError (the
// handler's 413) unless its first value ended before the limit, which
// decodes, as json.Decoder alone decoded it.
func TestDecodeSortBodyLimit(t *testing.T) {
	body := `{"keys":[2,1]}` + strings.Repeat(" ", 64)
	var spec JobSpec
	err := decodeSortBody(http.MaxBytesReader(nil, io.NopCloser(strings.NewReader(body)), 20), 20, &spec)
	if err != nil || len(spec.Keys) != 2 {
		t.Fatalf("value before the limit: err %v, keys %v", err, spec.Keys)
	}
	spec = JobSpec{}
	err = decodeSortBody(http.MaxBytesReader(nil, io.NopCloser(strings.NewReader(body)), 10), 10, &spec)
	var tooLarge *http.MaxBytesError
	if !errors.As(err, &tooLarge) {
		t.Fatalf("value past the limit: err %v, want *http.MaxBytesError", err)
	}
}

// TestDecodeSortBodyPresize pins that the buffer sized from a body's
// claimed length is capped: a request that claims 64 MB and stalls after
// a few bytes has allocated no more than maxPresize, and a body longer
// than the cap still reads whole as its bytes arrive.
func TestDecodeSortBodyPresize(t *testing.T) {
	pr, pw := io.Pipe()
	done := make(chan error, 1)
	var before, stalled runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	go func() {
		var spec JobSpec
		done <- decodeSortBody(pr, 64<<20, &spec)
	}()
	// The write returns once the decode has read it, so its buffer exists.
	if _, err := pw.Write([]byte(`{"keys":[`)); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&stalled)
	pw.CloseWithError(io.ErrUnexpectedEOF)
	if err := <-done; !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("stalled body: err %v, want the read error", err)
	}
	if got := stalled.TotalAlloc - before.TotalAlloc; got > 2*maxPresize {
		t.Errorf("a stalled body claiming 64 MB allocated %d bytes up front, want at most ~%d", got, maxPresize)
	}

	keys := dataset.Uniform(300000, 6)
	body := sortBody(t, keys)
	if len(body) <= 2*maxPresize {
		t.Fatalf("body of %d bytes does not outgrow the presize", len(body))
	}
	var spec JobSpec
	if err := decodeSortBody(iotest.HalfReader(bytes.NewReader(body)), int64(len(body)), &spec); err != nil || !reflect.DeepEqual(spec.Keys, keys) {
		t.Errorf("body past the presize: err %v, %d keys", err, len(spec.Keys))
	}
}

// BenchmarkDecodeSortBody decodes a 50k-key default request, the shape
// perfbench sends, by the one-pass parse and by encoding/json.
func BenchmarkDecodeSortBody(b *testing.B) {
	body := sortBody(b, dataset.Uniform(50000, 1))
	for _, bc := range []struct {
		name   string
		decode func(io.Reader, *JobSpec) error
	}{
		{"onepass", func(r io.Reader, spec *JobSpec) error { return decodeSortBody(r, int64(len(body)), spec) }},
		{"encoding-json", func(r io.Reader, spec *JobSpec) error { return decodeSpec(r, KindSort, spec) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for range b.N {
				var spec JobSpec
				if err := bc.decode(bytes.NewReader(body), &spec); err != nil || len(spec.Keys) != 50000 {
					b.Fatalf("err %v, %d keys", err, len(spec.Keys))
				}
			}
		})
	}
}
