package pcm

import (
	"math"
	"testing"
)

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		{Ranks: 0, BanksPerRank: 8, WriteQueueDepth: 1, PageBytes: 4096, ReadNanos: 50},
		{Ranks: 4, BanksPerRank: 8, WriteQueueDepth: 0, PageBytes: 4096, ReadNanos: 50},
		{Ranks: 4, BanksPerRank: 8, WriteQueueDepth: 1, PageBytes: 1, ReadNanos: 50},
		{Ranks: 4, BanksPerRank: 8, WriteQueueDepth: 1, PageBytes: 4096, ReadNanos: 0},
		{Ranks: 4, BanksPerRank: 8, WriteQueueDepth: 3, PageBytes: 4096, ReadNanos: 50},
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestConfigNeedsPowerOfTwoGeometry(t *testing.T) {
	for _, tc := range []struct {
		ranks, banksPerRank, pageBytes int
		ok                             bool
	}{
		{4, 8, 4096, true},
		{1, 1, 64, true},
		{2, 16, 1 << 16, true},
		{3, 8, 4096, false}, // 24 banks
		{4, 6, 4096, false},
		{5, 1, 4096, false},
		{4, 8, 3000, false},
		{4, 8, 4096 + 64, false},
		{4, 8, 96, false},
	} {
		cfg := DefaultConfig()
		cfg.Ranks, cfg.BanksPerRank, cfg.PageBytes = tc.ranks, tc.banksPerRank, tc.pageBytes
		if err := cfg.Validate(); (err == nil) != tc.ok {
			t.Errorf("%d×%d banks, %d B pages: Validate = %v, want ok=%v",
				tc.ranks, tc.banksPerRank, tc.pageBytes, err, tc.ok)
		}
	}
}

func TestBankInterleaving(t *testing.T) {
	s := New(DefaultConfig())
	if s.Bank(0) == s.Bank(4096) {
		t.Error("adjacent pages map to the same bank")
	}
	if s.Bank(0) != s.Bank(4095) {
		t.Error("same page split across banks")
	}
	if s.Bank(0) != s.Bank(4096*32) {
		t.Error("interleave period wrong: 32 banks expected")
	}
}

func TestPostedWritesDoNotBlock(t *testing.T) {
	s := New(DefaultConfig())
	now := s.Write(0, 0, 1000)
	if now != 0 {
		t.Errorf("first write stalled CPU to %v", now)
	}
	if s.QueueDepth(0, 0) != 1 {
		t.Errorf("queue depth = %d", s.QueueDepth(0, 0))
	}
	// After the service time the queue drains.
	if s.QueueDepth(0, 1000) != 0 {
		t.Error("write did not drain")
	}
}

func TestWriteQueueFullStalls(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WriteQueueDepth = 4
	s := New(cfg)
	now := 0.0
	for i := 0; i < 4; i++ {
		now = s.Write(0, now, 1000)
	}
	if now != 0 {
		t.Fatalf("queue filled early: now=%v", now)
	}
	// Fifth write must stall until the first drains at t=1000.
	now = s.Write(0, now, 1000)
	if now != 1000 {
		t.Errorf("full-queue write resumed at %v, want 1000", now)
	}
	st := s.Stats()
	if st.WriteQueueFullEvents != 1 {
		t.Errorf("WriteQueueFullEvents = %d", st.WriteQueueFullEvents)
	}
	if st.WriteStallNanos != 1000 {
		t.Errorf("WriteStallNanos = %v", st.WriteStallNanos)
	}
}

func TestReadLatencyIdleBank(t *testing.T) {
	s := New(DefaultConfig())
	done := s.Read(0, 100)
	if done != 150 {
		t.Errorf("idle-bank read completed at %v, want 150", done)
	}
}

func TestReadPriorityJumpsQueue(t *testing.T) {
	s := New(DefaultConfig())
	// Queue 10 writes of 1 µs each at t=0: they occupy the bank until
	// t=10000.
	for i := 0; i < 10; i++ {
		s.Write(0, 0, 1000)
	}
	// A read at t=100 waits only for the in-service write (ends t=1000),
	// not the whole queue.
	done := s.Read(0, 100)
	if done != 1050 {
		t.Errorf("read completed at %v, want 1050 (in-service write + 50ns)", done)
	}
	if s.Stats().ReadsDelayedByWrite != 1 {
		t.Errorf("ReadsDelayedByWrite = %d", s.Stats().ReadsDelayedByWrite)
	}
	// The queued writes were pushed back by the read: 9 writes remain,
	// resuming at 1050, so the queue drains at 1050+9000.
	if got := s.QueueDepth(0, 10000); got != 1 {
		t.Errorf("queue depth at t=10000 = %d, want 1 (pushed back)", got)
	}
	if got := s.QueueDepth(0, 10051); got != 0 {
		t.Errorf("queue depth at t=10051 = %d, want 0", got)
	}
}

func TestReadOnIdleBankIgnoresOtherBanks(t *testing.T) {
	s := New(DefaultConfig())
	for i := 0; i < 10; i++ {
		s.Write(0, 0, 1000) // bank of page 0
	}
	done := s.Read(4096, 100) // different bank
	if done != 150 {
		t.Errorf("read on idle bank completed at %v, want 150", done)
	}
}

func TestBankParallelismSpreadsWrites(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WriteQueueDepth = 2
	s := New(cfg)
	// Striping writes across pages uses all 32 banks: 64 writes fit
	// without a stall.
	now := 0.0
	for i := 0; i < 64; i++ {
		now = s.Write(uint64(i)*4096, now, 1000)
	}
	if now != 0 {
		t.Errorf("striped writes stalled: now=%v", now)
	}
	// The same 64 writes on one bank (queue depth 2) must stall.
	s2 := New(cfg)
	now = 0.0
	for i := 0; i < 64; i++ {
		now = s2.Write(0, now, 1000)
	}
	if now == 0 {
		t.Error("single-bank burst did not stall")
	}
}

func TestSeqWriteDiscount(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SeqWriteFactor = 0.5
	cfg.WriteQueueDepth = 2
	s := New(cfg)
	// First write to a page: full price; the next to the same page is
	// discounted. Observe through queue drain times.
	s.Write(0, 0, 1000)  // full 1000, ends 1000
	s.Write(64, 0, 1000) // same page: 500, ends 1500
	if got := s.Stats().SeqWriteHits; got != 1 {
		t.Fatalf("SeqWriteHits = %d, want 1", got)
	}
	if s.QueueDepth(0, 1499) != 1 {
		t.Error("discounted write finished early")
	}
	if s.QueueDepth(0, 1500) != 0 {
		t.Error("discounted write did not finish at 1500")
	}
	// A read to a different page closes the row.
	s.Read(4096*32, 2000) // same bank (page 32 maps to bank 0), other row
	s.Write(0, 3000, 1000)
	if got := s.Stats().SeqWriteHits; got != 1 {
		t.Errorf("row not closed by read: SeqWriteHits = %d", got)
	}
}

func TestSeqWriteFactorValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SeqWriteFactor = 1.5
	if cfg.Validate() == nil {
		t.Error("SeqWriteFactor > 1 accepted")
	}
}

func TestTimeMonotonicity(t *testing.T) {
	s := New(DefaultConfig())
	now := 0.0
	for i := 0; i < 1000; i++ {
		var next float64
		if i%3 == 0 {
			next = s.Read(uint64(i)*64, now)
		} else {
			next = s.Write(uint64(i)*64, now, 500)
		}
		if next < now {
			t.Fatalf("time went backwards at op %d: %v -> %v", i, now, next)
		}
		now = next
	}
	st := s.Stats()
	if st.Reads == 0 || st.Writes == 0 {
		t.Error("stats not accumulated")
	}
	if math.IsNaN(st.ReadStallNanos) || st.ReadStallNanos < 0 {
		t.Errorf("ReadStallNanos = %v", st.ReadStallNanos)
	}
}
