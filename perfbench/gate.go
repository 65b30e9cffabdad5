package main

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"

	"pincer/internal/dataset"
	"pincer/internal/fpmax"
	"pincer/internal/itemset"
	"pincer/internal/loadgen"
	"pincer/internal/server"
	"pincer/internal/vertical"
)

// refKey names one reference answer: the MFS with supports of a dataset at
// an absolute threshold, mined by a conformance-pinned plan.
type refKey struct {
	DS       *genDataset
	MinCount int64
	Plan     string // planFPMax or planVertical
}

// refPlanFor picks the reference plan for a job that ran `plan`: FP-max,
// unless FP-max is the plan under test, then the vertical miner.
func refPlanFor(plan string) string {
	if plan == planFPMax {
		return planVertical
	}
	return planFPMax
}

// references memoizes reference signatures. They are computed before
// timing; a reference first asked for during a timed window (an auto job
// that resolved otherwise than predicted) is computed then, under the lock.
type references struct {
	mu sync.Mutex
	m  map[refKey]string
}

func newReferences() *references { return &references{m: map[refKey]string{}} }

// effectivePlan is the plan that actually mines a cell: an auto cell's
// resolution on its dataset, else the cell's own plan.
func effectivePlan(c *cell) string {
	if c.Plan == planAuto {
		return c.DS.Auto
	}
	return c.Plan
}

// prime computes the reference of every distinct (dataset, threshold) in
// the cells, by a plan other than the one each cell runs.
func (r *references) prime(cells []*cell) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	loaded := map[*genDataset]*dataset.Dataset{}
	for _, c := range cells {
		k := refKey{DS: c.DS, MinCount: c.minCount(), Plan: refPlanFor(effectivePlan(c))}
		if _, ok := r.m[k]; ok {
			continue
		}
		d := loaded[c.DS]
		if d == nil {
			var err error
			if d, err = c.DS.load(); err != nil {
				return err
			}
			loaded[c.DS] = d
		}
		r.m[k] = referenceOf(d, k)
	}
	return nil
}

func (r *references) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.m)
}

// get returns the reference for k, computing it from the dataset's file if
// it was not primed.
func (r *references) get(k refKey) (string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if sig, ok := r.m[k]; ok {
		return sig, nil
	}
	d, err := k.DS.load()
	if err != nil {
		return "", err
	}
	r.m[k] = referenceOf(d, k)
	return r.m[k], nil
}

// referenceOf mines the reference of k on d.
func referenceOf(d *dataset.Dataset, k refKey) string {
	if k.Plan == planVertical {
		opt := vertical.DefaultOptions()
		opt.KeepFrequent = false
		// The vertical miner takes a fraction; half a transaction below the
		// count maps back onto exactly that count.
		res := vertical.MineMaximal(d, (float64(k.MinCount)-0.5)/float64(d.Len()), opt)
		if res.MinCount != k.MinCount {
			panic(fmt.Sprintf("perfbench: vertical reference ran at count %d, want %d", res.MinCount, k.MinCount))
		}
		return signature(res.MFS, res.MFSSupports)
	}
	res := fpmax.MineMaximalCount(d, k.MinCount, fpmax.DefaultOptions())
	return signature(res.MFS, res.MFSSupports)
}

// signature renders an MFS with supports in the canonical form
// loadgen.Signature gives a result document.
func signature(mfs []itemset.Itemset, sups []int64) string {
	lines := make([]string, len(mfs))
	for i, m := range mfs {
		parts := make([]string, len(m))
		for j, it := range m {
			parts[j] = strconv.Itoa(int(it))
		}
		lines[i] = strings.Join(parts, " ") + "=" + strconv.FormatInt(sups[i], 10)
	}
	sort.Strings(lines)
	return strings.Join(lines, ";")
}

// checkJob diffs one done job against its reference and returns a line
// naming the workload, job, and cell, or "" when it matches.
func checkJob(wl string, refs *references, op string, c *cell, doc *server.ResultDoc) string {
	plan := c.Plan
	if doc.Selection != nil {
		plan = doc.Selection.Miner
		if plan == server.MinerPincer && doc.Selection.Counter == "tidlist" {
			plan = planTidList
		}
	}
	if doc.MinCount != c.minCount() {
		return fmt.Sprintf("%s: job %s (%s, server id %s): min_count %d, want %d",
			wl, op, c.name(), doc.ID, doc.MinCount, c.minCount())
	}
	want, err := refs.get(refKey{DS: c.DS, MinCount: doc.MinCount, Plan: refPlanFor(plan)})
	if err != nil {
		return fmt.Sprintf("%s: job %s (%s, server id %s): reference: %v", wl, op, c.name(), doc.ID, err)
	}
	if loadgen.Signature(doc) != want {
		return fmt.Sprintf("%s: job %s (%s, server id %s): MFS differs from the %s reference",
			wl, op, c.name(), doc.ID, refPlanFor(plan))
	}
	return ""
}

// checkStreams diffs each stream's final maintained MFS against FP-max on
// the transactions its window holds.
func checkStreams(wl string, w *workload, d *daemon, delivered []int) []string {
	var bad []string
	for c, sp := range w.Streams {
		var doc server.StreamMFSDoc
		code, err := d.cli.call(http.MethodGet, "/v1/streams/"+d.streams[c]+"/mfs", nil, &doc)
		if err != nil || code != http.StatusOK {
			bad = append(bad, fmt.Sprintf("%s: stream %d: read MFS: code %d: %v", wl, c, code, err))
			continue
		}
		win := dataset.New(sp.window(delivered[c]))
		mc := dataset.MinCountFor(win.Len(), sp.Req.MinSupport)
		ref := fpmax.MineMaximalCount(win, mc, fpmax.DefaultOptions())
		got := make([]itemset.Itemset, len(doc.MFS))
		sups := make([]int64, len(doc.MFS))
		for i, m := range doc.MFS {
			got[i] = make(itemset.Itemset, len(m.Items))
			for j, it := range m.Items {
				got[i][j] = itemset.Item(it)
			}
			sups[i] = m.Support
		}
		switch {
		case doc.Seq != int64(delivered[c]) || doc.Transactions != win.Len():
			bad = append(bad, fmt.Sprintf("%s: stream %d: at seq %d with %d transactions, want seq %d with %d",
				wl, c, doc.Seq, doc.Transactions, delivered[c], win.Len()))
		case doc.MinCount != mc || signature(got, sups) != signature(ref.MFS, ref.MFSSupports):
			bad = append(bad, fmt.Sprintf("%s: stream %d (seq %d): maintained MFS differs from the fpmax reference",
				wl, c, doc.Seq))
		}
	}
	return bad
}

// checkMetrics cross-checks the client's counts against the daemon's own
// counters. warm is the untimed batches delivered to all streams.
func checkMetrics(wl string, m map[string]float64, res *loadResult, warm int) []string {
	var bad []string
	expect := func(series string, want int) {
		if got := m[series]; got != float64(want) {
			bad = append(bad, fmt.Sprintf("%s: /metrics %s = %g, the benchmark counted %d", wl, series, got, want))
		}
	}
	expect("pincer_jobs_submitted_total", res.Accepted+res.Cached)
	expect("pincer_cache_hits_total", res.Cached)
	expect("pincer_jobs_completed_total", res.Mined)
	expect("pincer_jobs_failed_total", 0)
	expect("pincer_jobs_partial_total", 0)
	expect("pincer_stream_batches_total", res.Acked+warm)
	return bad
}
