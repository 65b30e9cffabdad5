package main

import "testing"

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{5, 50, false},
		{19, 50, false},
		{20, 50, true},  // rank 10, ten beyond
		{39, 50, true},  // p75 would be rank 30: nine beyond
		{40, 75, true},  // rank 30, ten beyond
		{100, 90, true}, // rank 90, ten beyond
		{199, 90, true}, // p95 would be rank 190: nine beyond
		{200, 95, true},
		{1000, 99, true},
		{10000, 99.9, true},
	}
	for _, c := range cases {
		p, ok := tailPercentile(c.n)
		if p != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.want, c.ok)
		}
		if ok && c.n-rankOf(p, c.n) < minTailBeyond {
			t.Errorf("n=%d: p%v leaves %d samples beyond", c.n, p, c.n-rankOf(p, c.n))
		}
	}
}

func TestSummarizeReportsTheTailSample(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100 .. 1, unsorted
	}
	l := summarize(xs)
	if l.N != 100 || l.P50 != 50 || l.TailPct != 90 || l.Tail != 90 || !l.TailOK {
		t.Fatalf("summarize = %+v", l)
	}
}

func TestErrorRatioCountsRejectionsAndFailedJobs(t *testing.T) {
	var ty tally
	ty.add(outcomeOK)
	ty.add(outcomeOK)
	ty.add(outcomeOfCode(429))
	ty.add(outcomeFailed)
	if ty.Attempted != 4 || ty.Failed != 2 {
		t.Fatalf("tally = %+v", ty)
	}
	if r := ty.errorRatio(); r != 0.5 {
		t.Fatalf("errorRatio = %v, want 0.5", r)
	}
	if ty.ByOutcome[outcomeRejected] != 1 || ty.ByOutcome[outcomeFailed] != 1 {
		t.Fatalf("by outcome = %v", ty.ByOutcome)
	}
	for code, want := range map[int]string{200: outcomeOK, 429: outcomeRejected, 503: outcomeServerErr, 400: outcomeClientErr} {
		if got := outcomeOfCode(code); got != want {
			t.Errorf("outcomeOfCode(%d) = %q, want %q", code, got, want)
		}
	}
}

func TestSummarizePhasesTakesMediansOverPhases(t *testing.T) {
	phase := func(base float64) []float64 {
		xs := make([]float64, 100)
		for i := range xs {
			xs[i] = base + float64(i+1) // p50 is base+50, p90 base+90
		}
		return xs
	}
	// One slow phase and one empty one leave the medians where the
	// ordinary phases put them.
	l := summarizePhases([][]float64{phase(0), phase(1000), nil, phase(2)})
	if l.N != 300 || l.P50 != 52 || l.Tail != 92 || l.TailPct != 90 || !l.TailOK || len(l.PhaseTails) != 3 {
		t.Fatalf("summarizePhases = %+v", l)
	}
}
