package cache

import (
	"math"
	"testing"
)

func TestGeometry(t *testing.T) {
	c := New(32<<10, 8)
	if c.Sets() != 64 || c.Ways() != 8 {
		t.Errorf("32KB 8-way: sets=%d ways=%d, want 64/8", c.Sets(), c.Ways())
	}
}

func TestGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad geometry accepted")
		}
	}()
	New(1000, 3) // not divisible by ways*line
}

func TestGeometryNeedsPowerOfTwoSets(t *testing.T) {
	for _, tc := range []struct {
		size, ways int
		ok         bool
	}{
		{32 << 10, 8, true},      // Table 1 L1: 64 sets
		{2 << 20, 4, true},       // L2: 8192 sets
		{32 << 20, 8, true},      // L3: 65536 sets
		{2 * LineBytes, 2, true}, // 1 set
		{3 * 2 * LineBytes, 2, false},
		{96 << 10, 8, false}, // 192 sets
		{12 * LineBytes, 4, false},
		{5 * LineBytes, 1, false},
	} {
		func() {
			defer func() {
				if r := recover(); (r == nil) != tc.ok {
					t.Errorf("New(%d, %d): panic %v, want ok=%v", tc.size, tc.ways, r, tc.ok)
				}
			}()
			New(tc.size, tc.ways)
		}()
	}
}

func TestHitMRU(t *testing.T) {
	c := New(2*LineBytes, 2) // 1 set, 2 ways
	if c.HitMRU(0) {
		t.Error("HitMRU hit a cold cache")
	}
	c.Access(0)
	c.Access(64) // order: 64, 0
	if c.HitMRU(0) {
		t.Error("HitMRU hit the LRU line")
	}
	if !c.HitMRU(64 + 8) {
		t.Error("HitMRU missed the MRU line")
	}
	// A HitMRU hit changes no recency.
	c.Access(128) // evicts 0, the LRU line
	if c.Access(0) {
		t.Error("HitMRU reordered the set")
	}
}

func TestAddressBeyondTagRange(t *testing.T) {
	c := New(2*LineBytes, 2)                    // 1 set: the tag is the whole line number
	c.Access(0)                                 // tag 0, stored as 1
	big := uint64(math.MaxUint32+1) * LineBytes // tag 2^32 would wrap onto 1
	if c.HitMRU(big) {
		t.Error("HitMRU aliased an out-of-range address onto a resident line")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range address accepted")
		}
	}()
	c.Access(big)
}

func TestHitAfterMiss(t *testing.T) {
	c := New(4096, 2)
	if c.Access(0) {
		t.Error("cold access hit")
	}
	if !c.Access(0) {
		t.Error("second access missed")
	}
	if !c.Access(63) {
		t.Error("same-line access missed")
	}
	if c.Access(64) {
		t.Error("next-line access hit")
	}
	if !c.Access(64) {
		t.Error("next line was not allocated by its miss")
	}
}

func TestLRUEviction(t *testing.T) {
	// 2-way cache: two lines in a set survive, a third evicts the LRU.
	c := New(2*LineBytes, 2) // 1 set, 2 ways
	a, b, d := uint64(0), uint64(64), uint64(128)
	c.Access(a)
	c.Access(b)
	c.Access(a) // a is now MRU
	c.Access(d) // evicts b (LRU)
	if !c.Access(a) {
		t.Error("a evicted despite being MRU")
	}
	if c.Access(b) {
		t.Error("b survived eviction")
	}
}

func TestTouchDoesNotAllocate(t *testing.T) {
	c := New(4096, 4)
	if c.Touch(0) {
		t.Error("Touch hit a cold cache")
	}
	if c.Access(0) {
		t.Error("Touch must not have allocated")
	}
	if !c.Touch(0) {
		t.Error("Touch missed a resident line")
	}
}

func TestTouchRefreshesRecency(t *testing.T) {
	c := New(2*LineBytes, 2)
	a, b, d := uint64(0), uint64(64), uint64(128)
	c.Access(a)
	c.Access(b) // order: b, a (a is LRU)
	c.Touch(a)  // order: a, b
	c.Access(d) // evicts b
	if !c.Access(a) {
		t.Error("touched line was evicted")
	}
}

func TestSetMapping(t *testing.T) {
	c := New(4096, 1) // 64 direct-mapped sets
	// Addresses one set apart must not conflict; addresses sets*line
	// apart must conflict.
	c.Access(0)
	c.Access(64)
	if !c.Access(0) {
		t.Error("different sets conflicted")
	}
	c.Access(64 * 64) // same set as 0 in a direct-mapped cache
	if c.Access(0) {
		t.Error("conflicting line did not evict in direct-mapped cache")
	}
}

func TestHierarchyInclusionPath(t *testing.T) {
	h := NewHierarchy()
	level, nanos := h.Read(0)
	if level != 0 {
		t.Fatalf("cold read hit level %d", level)
	}
	if nanos != L1Nanos+L2Nanos+L3Nanos {
		t.Errorf("cold read traversal = %v ns", nanos)
	}
	level, nanos = h.Read(0)
	if level != 1 || nanos != L1Nanos {
		t.Errorf("warm read: level=%d nanos=%v, want L1 hit", level, nanos)
	}
}

func TestHierarchyL2Hit(t *testing.T) {
	h := NewHierarchy()
	h.Read(0)
	// Blow L1 (32 KB) with a 64 KB sweep, leaving L2 resident.
	for a := uint64(4096); a < 4096+64<<10; a += LineBytes {
		h.Read(a)
	}
	level, _ := h.Read(0)
	if level != 2 {
		t.Errorf("expected L2 hit after L1 flush, got level %d", level)
	}
}

// TestHierarchyWriteRefreshesEveryLevel pins that a store refreshes its
// line's recency at each level holding it, whether or not the line is
// already MRU there: Write's inlined MRU checks skip only no-op Touches.
func TestHierarchyWriteRefreshesEveryLevel(t *testing.T) {
	h := NewHierarchy()
	h.Read(0) // line 0 resident everywhere
	// Make line 0 the LRU line of its L1 set: seven other lines of the
	// same set (64 lines apart) fill the remaining ways.
	for i := uint64(1); i <= 7; i++ {
		h.Read(i * 64 * 64)
	}
	if h.L1.HitMRU(0) {
		t.Fatal("line 0 still MRU in L1")
	}
	h.Write(0)
	if !h.L1.HitMRU(0) || !h.L2.HitMRU(0) || !h.L3.HitMRU(0) {
		t.Error("store did not leave its line MRU at every level")
	}
	// One more conflicting line now evicts the old LRU, not line 0.
	h.Read(8 * 64 * 64)
	if level, _ := h.Read(0); level != 1 {
		t.Errorf("refreshed line evicted from L1: read hit level %d", level)
	}
}

func TestHierarchyWriteThrough(t *testing.T) {
	h := NewHierarchy()
	// A store to a cold line must not allocate it.
	h.Write(0)
	if level, _ := h.Read(0); level != 0 {
		t.Errorf("write allocated a line: read hit level %d", level)
	}
}

func BenchmarkHierarchyRead(b *testing.B) {
	h := NewHierarchy()
	for i := 0; i < b.N; i++ {
		h.Read(uint64(i*64) % (8 << 20))
	}
}
