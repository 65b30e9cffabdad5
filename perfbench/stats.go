package main

import (
	"math"
	"sort"
)

// minTailBeyond is how many samples must lie beyond a reported tail
// percentile: a tail resting on fewer samples is one slow request, not a
// percentile.
const minTailBeyond = 10

// tailLadder is the set of percentiles a tail may be reported at, highest
// first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// rankOf is the 1-based nearest-rank position of percentile p among n
// sorted samples.
func rankOf(p float64, n int) int {
	r := int(math.Ceil(p/100*float64(n) - 1e-9)) // 99.9% of 10000 is 9990, not 9990.000000000002
	if r < 1 {
		r = 1
	}
	return r
}

// tailPercentile returns the highest ladder percentile that leaves at least
// minTailBeyond of n samples above its rank. ok is false when even the
// median does not (fewer than 20 samples); the median is returned then.
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailLadder {
		if n-rankOf(p, n) >= minTailBeyond {
			return p, true
		}
	}
	return 50, false
}

// percentile returns the nearest-rank p-th percentile of sorted xs (0 for
// no samples).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankOf(p, len(sorted))-1]
}

// median returns the median of xs without reordering it.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 50)
}

// latency summarizes one latency population the way the report states it:
// sample count, median, and the tail at the percentile tailPercentile picks.
type latency struct {
	N       int     `json:"n"`
	P50     float64 `json:"p50_s"`
	Tail    float64 `json:"tail_s"`
	TailPct float64 `json:"tail_percentile"`
	// TailOK is false when there were too few samples for any percentile
	// to have ten beyond it.
	TailOK bool `json:"tail_ok"`
	// PhaseP50s and PhaseTails, when set, are the medians and tails of the
	// sub-phases the samples came from, and P50 and Tail are their
	// medians; TailPct is then the lowest sub-phase percentile.
	PhaseP50s  []float64 `json:"phase_p50s_s,omitempty"`
	PhaseTails []float64 `json:"phase_tails_s,omitempty"`
}

func summarize(xs []float64) latency {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	p, ok := tailPercentile(len(s))
	return latency{N: len(s), P50: percentile(s, 50), Tail: percentile(s, p), TailPct: p, TailOK: ok}
}

// summarizePhases summarizes samples taken in phases: N counts them all,
// and P50 and Tail are the medians of the phases' own medians and tails.
// Phases without samples are skipped.
func summarizePhases(phases [][]float64) latency {
	l := latency{TailOK: true}
	for _, ph := range phases {
		if len(ph) == 0 {
			continue
		}
		s := summarize(ph)
		l.N += s.N
		l.PhaseP50s = append(l.PhaseP50s, s.P50)
		l.PhaseTails = append(l.PhaseTails, s.Tail)
		if l.TailPct == 0 || s.TailPct < l.TailPct {
			l.TailPct = s.TailPct
		}
		l.TailOK = l.TailOK && s.TailOK
	}
	l.P50, l.Tail = median(l.PhaseP50s), median(l.PhaseTails)
	l.TailOK = l.TailOK && l.N > 0
	return l
}

// Outcome kinds of one attempted operation (a job or a batch).
const (
	outcomeOK        = "ok"
	outcomeRejected  = "rejected_429"
	outcomeServerErr = "server_5xx"
	outcomeTransport = "transport"
	outcomeClientErr = "client_4xx"
	outcomeFailed    = "job_failed"
	outcomePartial   = "job_partial"
	outcomeCancelled = "job_cancelled"
	outcomeWrong     = "wrong_answer"
)

// tally counts attempted operations by outcome. Every outcome but ok is a
// miss: refused, broken, or unfinished work fails any latency limit.
type tally struct {
	Attempted int            `json:"attempted"`
	Failed    int            `json:"failed"`
	ByOutcome map[string]int `json:"by_outcome,omitempty"`
}

func (t *tally) add(outcome string) {
	t.Attempted++
	if outcome != outcomeOK {
		t.Failed++
		if t.ByOutcome == nil {
			t.ByOutcome = map[string]int{}
		}
		t.ByOutcome[outcome]++
	}
}

func (t *tally) merge(o tally) {
	t.Attempted += o.Attempted
	t.Failed += o.Failed
	for k, v := range o.ByOutcome {
		if t.ByOutcome == nil {
			t.ByOutcome = map[string]int{}
		}
		t.ByOutcome[k] += v
	}
}

// errorRatio is failed operations over attempted ones.
func (t tally) errorRatio() float64 {
	if t.Attempted == 0 {
		return 0
	}
	return float64(t.Failed) / float64(t.Attempted)
}

// outcomeOfCode classifies a non-2xx HTTP status.
func outcomeOfCode(code int) string {
	switch {
	case code == 429:
		return outcomeRejected
	case code >= 500:
		return outcomeServerErr
	case code >= 400:
		return outcomeClientErr
	}
	return outcomeOK
}
