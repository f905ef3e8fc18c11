package main

import (
	"testing"
	"time"
)

func sp(id, parent int, name string, start, end time.Duration) span {
	return span{ID: id, Parent: parent, Name: name, Job: "j", Start: start, End: end}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		sp(0, -1, "job", 0, 100),
		sp(1, 0, "a", 10, 30),
		sp(2, 0, "b", 20, 50),   // overlaps a: the union counts once
		sp(3, 0, "c", 90, 120),  // runs past the parent: only [90, 100) counts
		sp(4, 1, "a.x", 12, 18), // a grandchild never reduces the job's self time
		sp(5, -1, "probe", 200, 230),
	}
	want := []time.Duration{100 - 40 - 10, 20 - 6, 30, 30, 6, 30}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
}

func TestLayerTimesSumsByName(t *testing.T) {
	spans := []span{
		sp(0, -1, "job", 0, 10*time.Millisecond),
		sp(1, 0, "core.plan", 0, 2*time.Millisecond),
		sp(2, 0, "core.plan", 4*time.Millisecond, 5*time.Millisecond),
	}
	total, self := layerTimes(spans)
	if total["job"] != 10 || self["job"] != 7 || total["core.plan"] != 3 || self["core.plan"] != 3 {
		t.Errorf("total %v self %v", total, self)
	}
}

func TestRecorderNestsSpans(t *testing.T) {
	r := newRecorder()
	root := r.start("job", "j1", -1)
	child := r.do("core.plan", "j1", root, func() { time.Sleep(time.Millisecond) })
	r.end(root)
	s := r.spans
	if s[child].Parent != root || s[child].Job != "j1" {
		t.Fatalf("child span %+v", s[child])
	}
	if s[child].Start < s[root].Start || s[child].End > s[root].End || s[child].dur() < time.Millisecond {
		t.Errorf("child %+v not inside root %+v", s[child], s[root])
	}
}
