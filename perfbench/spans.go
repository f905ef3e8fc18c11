package main

import (
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the traced replay.
// Start and End are offsets from the recorder's epoch; Parent is the
// enclosing span's ID (-1 for a root). Spans of one replayed job share
// Job.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Job    string        `json:"job"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory; they are written out once the run ends.
// It is used from one goroutine.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// start opens a span and returns its ID.
func (r *recorder) start(name, job string, parent int) int {
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Job: job, Start: time.Since(r.epoch), End: -1})
	return id
}

// end closes span id.
func (r *recorder) end(id int) { r.spans[id].End = time.Since(r.epoch) }

// do records f as a span and returns its ID.
func (r *recorder) do(name, job string, parent int, f func()) int {
	id := r.start(name, job, parent)
	f()
	r.end(id)
	return id
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover. Overlapping children are
// counted once, and child time outside the parent's interval is ignored.
func selfTimes(spans []span) []time.Duration {
	children := make([][]span, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - covered(s, children[i])
	}
	return self
}

// covered returns the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, children []span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo <= cur.hi:
			cur.hi = max(cur.hi, v.hi)
		default:
			total += cur.hi - cur.lo
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.hi - cur.lo
	}
	return total
}

// layerTimes folds spans into per-name totals in milliseconds: the summed
// duration and the summed self time of every span with that name.
func layerTimes(spans []span) (total, self map[string]float64) {
	total, self = map[string]float64{}, map[string]float64{}
	st := selfTimes(spans)
	for i, s := range spans {
		total[s.Name] += ms(s.dur())
		self[s.Name] += ms(st[i])
	}
	return total, self
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
