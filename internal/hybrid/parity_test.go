package hybrid

import (
	"fmt"
	"math"
	"testing"

	"approxsort/internal/core"
	"approxsort/internal/dataset"
	"approxsort/internal/mem"
	"approxsort/internal/mlc"
	"approxsort/internal/pcm"
	"approxsort/internal/rng"
	"approxsort/internal/sorts"
)

// The tests in this file pin the memory system's outputs bit for bit.
// Each drives a fixed access stream and compares every field of
// hybrid.Stats (and pcm.Stats inside it) against literals recorded
// before the cache, device and region loops were flattened. Floats are
// compared through math.Float64bits: a rewrite of the simulator may
// change how fast it runs, never what clock it reports. The sortd
// golden rows check pcm_nanos only to a relative 1e-9, so these are the
// exact gate.

// statBits is a Stats snapshot with every float replaced by its IEEE-754
// bits, so == on the struct is bit-identity on every field.
type statBits struct {
	Clock, CacheReadNanos, MemReadNanos, WriteStallNanos uint64
	Reads, Writes, L1Hits, L2Hits, L3Hits, MemReads      uint64

	DevReads, DevWrites                        uint64
	DevReadStallNanos, DevWriteStallNanos      uint64
	DevQueueFull, DevReadsDelayed, DevSeqWrite uint64
}

func bitsOf(s Stats) statBits {
	d := s.Device
	return statBits{
		Clock:              math.Float64bits(s.Clock),
		CacheReadNanos:     math.Float64bits(s.CacheReadNanos),
		MemReadNanos:       math.Float64bits(s.MemReadNanos),
		WriteStallNanos:    math.Float64bits(s.WriteStallNanos),
		Reads:              s.Reads,
		Writes:             s.Writes,
		L1Hits:             s.L1Hits,
		L2Hits:             s.L2Hits,
		L3Hits:             s.L3Hits,
		MemReads:           s.MemReads,
		DevReads:           d.Reads,
		DevWrites:          d.Writes,
		DevReadStallNanos:  math.Float64bits(d.ReadStallNanos),
		DevWriteStallNanos: math.Float64bits(d.WriteStallNanos),
		DevQueueFull:       d.WriteQueueFullEvents,
		DevReadsDelayed:    d.ReadsDelayedByWrite,
		DevSeqWrite:        d.SeqWriteHits,
	}
}

func checkParity(t *testing.T, sys *System, want statBits) {
	t.Helper()
	st := sys.Stats()
	if err := st.Check(); err != nil {
		t.Fatal(err)
	}
	if got := bitsOf(st); got != want {
		t.Errorf("stats drifted from the pinned stream (clock %v ns)\n got: %s\nwant: %s",
			st.Clock, got.literal(), want.literal())
	}
}

// literal renders b as a Go composite literal: float bits in hex,
// counts in decimal.
func (b statBits) literal() string {
	return fmt.Sprintf("statBits{\n"+
		"\tClock: %#x, CacheReadNanos: %#x, MemReadNanos: %#x, WriteStallNanos: %#x,\n"+
		"\tReads: %d, Writes: %d, L1Hits: %d, L2Hits: %d, L3Hits: %d, MemReads: %d,\n"+
		"\tDevReads: %d, DevWrites: %d,\n"+
		"\tDevReadStallNanos: %#x, DevWriteStallNanos: %#x,\n"+
		"\tDevQueueFull: %d, DevReadsDelayed: %d, DevSeqWrite: %d,\n}",
		b.Clock, b.CacheReadNanos, b.MemReadNanos, b.WriteStallNanos,
		b.Reads, b.Writes, b.L1Hits, b.L2Hits, b.L3Hits, b.MemReads,
		b.DevReads, b.DevWrites, b.DevReadStallNanos, b.DevWriteStallNanos,
		b.DevQueueFull, b.DevReadsDelayed, b.DevSeqWrite)
}

// sortPrecise mirrors sortd's precise path: keys and IDs in one precise
// space, warm-up loaded unsinked, then the sort's stream into sink.
func sortPrecise(sink mem.Sink, alg sorts.Algorithm, n int, seed uint64) {
	space := mem.NewPreciseSpace()
	p := sorts.Pair{Keys: space.Alloc(n), IDs: space.Alloc(n)}
	mem.Load(p.Keys, dataset.Uniform(n, seed))
	mem.Load(p.IDs, dataset.IDs(n))
	space.SetSink(sink)
	alg.Sort(p, sorts.Env{KeySpace: space, IDSpace: space, R: rng.New(seed ^ 0x5eed)})
}

func TestParitySortdPrecisePath(t *testing.T) {
	sys := New()
	sortPrecise(sys.Region("precise", mlc.PreciseWriteNanos), sorts.Quicksort{}, 50000, 1)
	checkParity(t, sys, statBits{
		Clock: 0x41b5787db4000000, CacheReadNanos: 0x4140e43800000000, MemReadNanos: 0x414e953f80000000, WriteStallNanos: 0x41b5198ac5000000,
		Reads: 2018208, Writes: 885320, L1Hits: 1984885, L2Hits: 27073, L3Hits: 0, MemReads: 6250,
		DevReads: 6250, DevWrites: 885320,
		DevReadStallNanos: 0x414e953f80000000, DevWriteStallNanos: 0x41b5198ac5000000,
		DevQueueFull: 434628, DevReadsDelayed: 5902, DevSeqWrite: 0,
	})
}

func TestParityApproxRefineRun(t *testing.T) {
	const n = 20000
	keys := dataset.Uniform(n, 2)
	alg, err := sorts.New("msd", 0)
	if err != nil {
		t.Fatal(err)
	}
	sys := New()
	_, err = core.Run(keys, core.Config{
		Algorithm:    alg,
		NewSpace:     func(s uint64) core.Space { return mem.NewApproxSpaceAt(0.055, s) },
		Seed:         3,
		SkipBaseline: true,
		PreciseSink:  sys.Region("precise", mlc.PreciseWriteNanos),
		ApproxSink:   sys.Region("approx", 0.67*mlc.PreciseWriteNanos),
	})
	if err != nil {
		t.Fatal(err)
	}
	checkParity(t, sys, statBits{
		Clock: 0x4199d83288000000, CacheReadNanos: 0x4131345b00000000, MemReadNanos: 0x41507e3680000000, WriteStallNanos: 0x41988b7db4000000,
		Reads: 452421, Writes: 322332, L1Hits: 367195, L2Hits: 51807, L3Hits: 50, MemReads: 33369,
		DevReads: 33369, DevWrites: 322332,
		DevReadStallNanos: 0x41507e3680000000, DevWriteStallNanos: 0x41988b7db4000000,
		DevQueueFull: 112726, DevReadsDelayed: 4105, DevSeqWrite: 0,
	})
}

// TestParityStallsAndPushBack runs a device with two-entry write queues
// and the row-buffer discount, so write stalls, sequential-write hits
// and reads pushing queued writes back all occur.
func TestParityStallsAndPushBack(t *testing.T) {
	cfg := pcm.DefaultConfig()
	cfg.SeqWriteFactor = 0.5
	cfg.WriteQueueDepth = 2
	sys := NewWithConfig(cfg)
	sortPrecise(sys.Region("precise", mlc.PreciseWriteNanos), sorts.Mergesort{}, 8000, 4)
	r := rng.New(5)
	regions := []*Region{sys.Region("a", 800), sys.Region("b", 450)}
	for i := 0; i < 50000; i++ {
		reg := regions[r.Intn(2)]
		addr := uint64(r.Intn(1 << 22))
		if r.Bernoulli(0.5) {
			reg.Access(mem.OpRead, addr, 4)
		} else {
			reg.Access(mem.OpWrite, addr, 4)
		}
		if i%1000 == 0 {
			sys.AdvanceClock(float64(r.Intn(5000)))
		}
	}
	st := sys.Stats().Device
	if st.WriteQueueFullEvents == 0 || st.SeqWriteHits == 0 || st.ReadsDelayedByWrite == 0 {
		t.Fatalf("stream misses a device path: %+v", st)
	}
	checkParity(t, sys, statBits{
		Clock: 0x418e158090000000, CacheReadNanos: 0x4129936400000000, MemReadNanos: 0x41443b2880000000, WriteStallNanos: 0x418c5ba2f0000000,
		Reads: 436312, Writes: 249160, L1Hits: 397571, L2Hits: 14062, L3Hits: 48, MemReads: 24631,
		DevReads: 24631, DevWrites: 249160,
		DevReadStallNanos: 0x41443b2880000000, DevWriteStallNanos: 0x418c5ba2f0000000,
		DevQueueFull: 203658, DevReadsDelayed: 3537, DevSeqWrite: 224364,
	})
}

func TestParityVMPath(t *testing.T) {
	const n = 10000
	sys := New()
	vm := NewVM(sys, 0.67*mlc.PreciseWriteNanos)
	keyBase, err := vm.Alloc(4*n, Approx)
	if err != nil {
		t.Fatal(err)
	}
	idBase, err := vm.Alloc(4*n, Precise)
	if err != nil {
		t.Fatal(err)
	}
	keySpace := mem.NewApproxSpaceAt(0.055, 6)
	idSpace := mem.NewPreciseSpace()
	p := sorts.Pair{Keys: keySpace.Alloc(n), IDs: idSpace.Alloc(n)}
	mem.Load(p.Keys, dataset.Uniform(n, 7))
	mem.Load(p.IDs, dataset.IDs(n))
	keySpace.SetSink(vm.Sink(keyBase))
	idSpace.SetSink(vm.Sink(idBase))
	sorts.Quicksort{}.Sort(p, sorts.Env{KeySpace: keySpace, IDSpace: idSpace, R: rng.New(8)})
	if got, want := vm.Stats(), (VMStats{Loads: 359116, Stores: 153304, MappedPages: 20}); got != want {
		t.Errorf("VMStats = %#v, want %#v", got, want)
	}
	checkParity(t, sys, statBits{
		Clock: 0x419a8046e8000000, CacheReadNanos: 0x4117b6b000000000, MemReadNanos: 0x41287c7c00000000, WriteStallNanos: 0x419a379740000000,
		Reads: 359116, Writes: 153304, L1Hits: 354889, L2Hits: 2977, L3Hits: 0, MemReads: 1250,
		DevReads: 1250, DevWrites: 153304,
		DevReadStallNanos: 0x41287c7c00000000, DevWriteStallNanos: 0x419a379740000000,
		DevQueueFull: 132424, DevReadsDelayed: 1036, DevSeqWrite: 0,
	})
}
