package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Every span of one job or
// batch carries that operation's id in Op; Parent indexes the span that
// caused it (-1 for the operation's root).
type span struct {
	Op     string `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. A nil recorder is the
// untraced mode: begin and end take no timestamps and record nothing.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its handle (-1 on a nil recorder).
func (r *recorder) begin(op, name string, parent int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Op: op, Name: name, Start: now, End: -1, Parent: parent})
	return len(r.spans) - 1
}

// end closes the span opened by begin.
func (r *recorder) end(h int) {
	if r == nil || h < 0 {
		return
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans[h].End = now
	r.mu.Unlock()
}

// snapshot returns a copy of every span recorded so far.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write dumps the spans as one JSON array.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(r.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns, for every span, its duration minus the part of its
// interval that its children cover (overlapping children count once, and
// a child's part outside its parent does not count).
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - covered(s, spans, children[i])
	}
	return self
}

// covered is the length of the union of the child intervals, clipped to
// the parent's interval.
func covered(parent span, spans []span, kids []int) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := spans[k].Start, spans[k].End
		if lo < parent.Start {
			lo = parent.Start
		}
		if hi > parent.End {
			hi = parent.End
		}
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var total, curLo, curHi int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curLo, curHi, open = v.lo, v.hi, true
		case v.lo <= curHi:
			if v.hi > curHi {
				curHi = v.hi
			}
		default:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// reconcile checks, for every root span, that the self times of its whole
// tree add up to its wall clock: a child that escapes its parent or
// overlaps a sibling breaks the sum. tol is the allowed share of the root's
// duration, with a 2µs floor for clock granularity.
func reconcile(spans []span, tol float64) error {
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %s/%s never ended", s.Op, s.Name)
		}
	}
	self := selfTimes(spans)
	sum := make([]int64, len(spans)) // per root
	rootOf := make([]int, len(spans))
	for i, s := range spans {
		if s.Parent < 0 {
			rootOf[i] = i
		} else {
			rootOf[i] = rootOf[s.Parent] // parents are recorded before children
		}
		sum[rootOf[i]] += self[i]
	}
	for i, s := range spans {
		if s.Parent >= 0 {
			continue
		}
		diff := sum[i] - s.dur()
		if diff < 0 {
			diff = -diff
		}
		allowed := int64(tol * float64(s.dur()))
		if allowed < 2000 {
			allowed = 2000
		}
		if diff > allowed {
			return fmt.Errorf("op %s: span %s lasts %v but its tree's self times sum to %v",
				s.Op, s.Name, time.Duration(s.dur()), time.Duration(sum[i]))
		}
	}
	return nil
}

// layerTotals sums, per span name, the total duration and self time of
// every span, and counts them.
type layerTotal struct {
	N     int
	Total time.Duration
	Self  time.Duration
}

func layerTotals(spans []span) map[string]*layerTotal {
	self := selfTimes(spans)
	out := map[string]*layerTotal{}
	for i, s := range spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTotal{}
			out[s.Name] = lt
		}
		lt.N++
		lt.Total += time.Duration(s.dur())
		lt.Self += time.Duration(self[i])
	}
	return out
}
