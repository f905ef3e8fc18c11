// diskorder: sorting a dataset that does not fit in memory — the paper's
// Section 4.1 note made concrete: "If the data is initially in the hard
// disk, we need to adopt more advanced external memory sorting algorithms,
// for which the proposed approx-refine scheme can be used in their
// in-memory sorting steps."
//
// The example writes a key file to a temp directory, external-sorts it
// with approx-refine run formation (internal/extsort), and verifies the
// output file is exactly sorted.
//
// Run with:
//
//	go run ./examples/diskorder
package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"

	"approxsort/internal/core"
	"approxsort/internal/dataset"
	"approxsort/internal/extsort"
	"approxsort/internal/memmodel"
	"approxsort/internal/sorts"
)

func main() {
	log.SetFlags(0)
	const n = 2_000_000
	dir, err := os.MkdirTemp("", "diskorder-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	inPath := filepath.Join(dir, "keys.bin")
	outPath := filepath.Join(dir, "sorted.bin")
	writeKeys(inPath, dataset.Uniform(n, 99))

	in, err := os.Open(inPath)
	if err != nil {
		log.Fatal(err)
	}
	defer in.Close()
	out, err := os.Create(outPath)
	if err != nil {
		log.Fatal(err)
	}
	defer out.Close()

	// Runs form on MLC PCM at the Figure 9 sweet spot, T = 0.055.
	b := memmodel.MustGet(memmodel.PCMMLC)
	pt, err := b.Normalize(memmodel.MLC(0.055))
	if err != nil {
		log.Fatal(err)
	}
	stats, err := extsort.SortStream(in, out, extsort.Config{
		Core: core.Config{
			Algorithm: sorts.MSD{Bits: 3},
			NewSpace:  func(s uint64) core.Space { return b.NewApprox(pt, s) },
			Seed:      99,
		},
		RunSize: 250_000, // pretend only 1 MB of record memory is available
		FanIn:   4,
		TempDir: dir,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := out.Close(); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("external sort of %d records: %d runs, %d merge pass(es)\n",
		stats.Records, stats.Runs, stats.MergePasses)
	fmt.Printf("run formation on approximate memory: %.1f ms of write latency, Rem~ total %d\n",
		stats.HybridWriteNanos/1e6, stats.RemTildeTotal)

	verify(outPath, n)
	fmt.Println("output file verified: fully sorted ✔")
}

func writeKeys(path string, keys []uint32) {
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	var word [4]byte
	for _, k := range keys {
		binary.LittleEndian.PutUint32(word[:], k)
		if _, err := bw.Write(word[:]); err != nil {
			log.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
}

func verify(path string, n int) {
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)
	var word [4]byte
	prev := uint32(0)
	count := 0
	for {
		if _, err := io.ReadFull(br, word[:]); err != nil {
			if err == io.EOF {
				break
			}
			log.Fatal(err)
		}
		k := binary.LittleEndian.Uint32(word[:])
		if count > 0 && k < prev {
			log.Fatalf("output unsorted at record %d", count)
		}
		prev = k
		count++
	}
	if count != n {
		log.Fatalf("output has %d records, want %d", count, n)
	}
}
