package main

import (
	"encoding/binary"
	"encoding/json"
	"slices"

	"approxsort/internal/dataset"
	"approxsort/internal/rng"
)

// input is one generated job input: the keys sent to sortd, the benchmark's
// own reference for checking the output, and the request seed.
type input struct {
	index  int
	keys   []uint32
	sorted []uint32 // sorted copy of keys (in-memory workloads)
	sum    uint64   // multiset checksum of keys
	seed   uint64   // the request's "seed" field
	body   []byte   // the encoded request body, built once
}

// genKeys returns input i of a workload's pool: n uniform keys drawn from
// a stream keyed by the workload seed, the workload name and i. The same
// arguments always give the same keys.
func genKeys(workload string, seed uint64, i, n int) []uint32 {
	return dataset.Uniform(n, rng.Split(seed, "perfbench", workload, "keys", i))
}

// requestSeed returns the "seed" field sent with input i.
func requestSeed(workload string, seed uint64, i int) uint64 {
	return rng.Split(seed, "perfbench", workload, "request", i)
}

// checksum is an order-independent multiset hash: the wrapping sum of a
// 64-bit mix of every key. Two streams with the same count and checksum
// hold the same keys with overwhelming probability.
func checksum(keys []uint32) uint64 {
	var sum uint64
	for _, k := range keys {
		sum += mix64(uint64(k))
	}
	return sum
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// sortRequest is the JSON body of an in-memory POST /v1/sort job.
type sortRequest struct {
	Keys       []uint32 `json:"keys"`
	Algorithm  string   `json:"algorithm"`
	Mode       string   `json:"mode"`
	Backend    string   `json:"backend"`
	T          float64  `json:"t"`
	Seed       uint64   `json:"seed"`
	ReturnKeys bool     `json:"return_keys"`
}

// makeInputs generates the workload's input pool for one seed. Bodies are
// encoded here, outside any timed phase.
func makeInputs(w workload, seed uint64) ([]input, error) {
	pool := make([]input, w.pool)
	for i := range pool {
		in := input{
			index: i,
			keys:  genKeys(w.name, seed, i, w.n),
			seed:  requestSeed(w.name, seed, i),
		}
		in.sum = checksum(in.keys)
		if w.shards > 0 {
			in.body = make([]byte, 4*len(in.keys))
			for j, k := range in.keys {
				binary.LittleEndian.PutUint32(in.body[4*j:], k)
			}
		} else {
			in.sorted = slices.Clone(in.keys)
			slices.Sort(in.sorted)
			body, err := json.Marshal(sortRequest{
				Keys: in.keys, Algorithm: "auto", Mode: w.mode, Backend: backend,
				T: halfWidth, Seed: in.seed, ReturnKeys: true,
			})
			if err != nil {
				return nil, err
			}
			in.body = body
		}
		pool[i] = in
	}
	return pool, nil
}
