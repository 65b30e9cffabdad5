package main

import (
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"pincer/internal/server"
)

// clientResult is what one closed-loop client observed.
type clientResult struct {
	JobLat, BatchLat []float64 // seconds, ok operations only
	PlanLat          map[string][]float64
	Tally            tally
	// Mismatches are the gate's findings on done jobs, each checked
	// against its reference as it completes; the result doc is not kept.
	Mismatches       []string
	Acked            int // batches acknowledged (not duplicates)
	Accepted, Cached int // job submissions mined / served from the result cache
	Mined            int // done jobs that were mined, not served from the cache
	Remined          int // acked batches whose delta re-mined

	// Measured only when traced.
	SubmitRTT, PollRTT, ResultRTT []float64
	JobOverhead, BatchOverhead    []float64
	Polls                         int
}

func (r *clientResult) merge(o *clientResult) {
	r.JobLat = append(r.JobLat, o.JobLat...)
	r.BatchLat = append(r.BatchLat, o.BatchLat...)
	for p, l := range o.PlanLat {
		if r.PlanLat == nil {
			r.PlanLat = map[string][]float64{}
		}
		r.PlanLat[p] = append(r.PlanLat[p], l...)
	}
	r.Tally.merge(o.Tally)
	r.Mismatches = append(r.Mismatches, o.Mismatches...)
	r.Acked += o.Acked
	r.Accepted += o.Accepted
	r.Cached += o.Cached
	r.Mined += o.Mined
	r.Remined += o.Remined
	r.SubmitRTT = append(r.SubmitRTT, o.SubmitRTT...)
	r.PollRTT = append(r.PollRTT, o.PollRTT...)
	r.ResultRTT = append(r.ResultRTT, o.ResultRTT...)
	r.JobOverhead = append(r.JobOverhead, o.JobOverhead...)
	r.BatchOverhead = append(r.BatchOverhead, o.BatchOverhead...)
	r.Polls += o.Polls
}

// loadResult is one timed window over both clients.
type loadResult struct {
	clientResult
	// JobSeconds and BatchSeconds are the length of the phases that sent
	// jobs and batches, from the first send to the last completion;
	// Seconds is the whole window.
	JobSeconds, BatchSeconds, Seconds float64
	// BatchPhases holds the batch latencies of each batch sub-phase, in
	// order, and BatchPhaseSeconds their lengths; BatchLat is all of them.
	BatchPhases       [][]float64
	BatchPhaseSeconds []float64
	// Delivered is the batches each stream holds at the end, warm-up
	// included.
	Delivered []int
	// serverMetrics is the daemon's /metrics at the end of the window.
	serverMetrics map[string]float64
}

// drive fills each stream's window untimed, then runs the clients' closed
// loops over the window in rounds: each sends w.BatchesPerRound batches and
// then runs jobs for the rest of the round, taking the request list up
// where the last round left off. Batches and jobs never run at once, so
// neither path perturbs the other; the batch sub-phases are spread over the
// whole window, so a burst of host contention reaches only some of them;
// and each holds the same number of acks, so its tail is always taken at
// the same percentile. Before each batch sub-phase the file system is
// synced, untimed, so the spool writes of the jobs before it are not
// flushed inside batch acks. beforeRound, when not nil, runs untimed at
// the start of each round. Done jobs are checked against refs as they
// complete. rec is nil untraced.
func drive(w *workload, d *daemon, refs *references, window time.Duration, rec *recorder, beforeRound func(round int) error) (*loadResult, error) {
	seqs := make([]int64, clients)
	for c, sp := range w.Streams {
		for k := 0; k < sp.warmBatches(); k++ {
			seqs[c]++
			var doc server.StreamDeltaDoc
			code, err := d.cli.call(http.MethodPost, "/v1/streams/"+d.streams[c]+"/batches",
				server.BatchRequest{Seq: seqs[c], Baskets: sp.Batches[k%len(sp.Batches)]}, &doc)
			if err != nil || code != http.StatusOK {
				return nil, fmt.Errorf("warm stream %d batch %d: code %d: %v", c, seqs[c], code, err)
			}
		}
	}
	out := &loadResult{}
	cls := make([]*closedLoop, clients)
	for c := range cls {
		cls[c] = &closedLoop{idx: c, w: w, d: d, refs: refs, rec: rec, seq: seqs[c], res: &clientResult{}}
	}
	round := window / rounds
	var nextJob atomic.Int64 // position in w.Ops, kept across job sub-phases
	for k := 0; k < rounds; k++ {
		if beforeRound != nil {
			if err := beforeRound(k); err != nil {
				return nil, err
			}
		}
		syscall.Sync()
		marks := make([]int, len(cls))
		for c, cl := range cls {
			marks[c] = len(cl.res.BatchLat)
		}
		secs := runPhase(cls, []op{{}}, new(atomic.Int64), w.BatchesPerRound, round)
		var lat []float64
		for c, cl := range cls {
			lat = append(lat, cl.res.BatchLat[marks[c]:]...)
		}
		out.BatchPhases = append(out.BatchPhases, lat)
		out.BatchPhaseSeconds = append(out.BatchPhaseSeconds, secs)
		out.BatchSeconds += secs
		out.JobSeconds += runPhase(cls, w.Ops, &nextJob, 0, round-time.Duration(secs*float64(time.Second)))
	}
	out.Seconds = out.BatchSeconds + out.JobSeconds
	for _, cl := range cls {
		out.merge(cl.res)
		out.Delivered = append(out.Delivered, int(cl.seq))
	}
	return out, nil
}

// runPhase runs the clients' closed loops over ops, from position next on,
// until d has passed or, when n > 0, n operations have been sent (the
// operations in flight then complete) and returns the seconds from the
// first send to the last completion.
func runPhase(cls []*closedLoop, ops []op, next *atomic.Int64, n int, d time.Duration) float64 {
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	ends := make([]time.Time, len(cls))
	for c, cl := range cls {
		wg.Add(1)
		go func(c int, cl *closedLoop) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if n > 0 && i >= n {
					break
				}
				if o := ops[i%len(ops)]; o.Cell != nil {
					cl.job(i, o.Cell)
				} else {
					cl.batch()
				}
			}
			ends[c] = time.Now()
		}(c, cl)
	}
	wg.Wait()
	last := start
	for _, e := range ends {
		if e.After(last) {
			last = e
		}
	}
	return last.Sub(start).Seconds()
}

// closedLoop is one client's state.
type closedLoop struct {
	idx  int
	w    *workload
	d    *daemon
	refs *references
	rec  *recorder
	seq  int64 // last batch seq sent to the client's stream
	res  *clientResult
}

func terminal(status string) bool {
	switch status {
	case server.StatusDone, server.StatusPartial, server.StatusFailed, server.StatusCancelled:
		return true
	}
	return false
}

// Poll backoff: the first poll follows the submit at once, later ones
// back off geometrically so long jobs are not polled in a hot loop.
const (
	pollFirst = 500 * time.Microsecond
	pollMax   = 10 * time.Millisecond
)

// job submits the cell, polls it to a terminal state, and fetches its
// result. Latency runs from the submit send to the terminal observation.
func (cl *closedLoop) job(i int, c *cell) {
	id := fmt.Sprintf("c%d-op%d", cl.idx, i)
	root := cl.rec.begin(id, "job", -1)
	defer cl.rec.end(root)
	start := time.Now()

	h := cl.rec.begin(id, "server.submit", root)
	var v server.JobView
	code, err := cl.d.cli.call(http.MethodPost, "/v1/jobs", c.request(), &v)
	cl.rec.end(h)
	if cl.rec != nil {
		cl.res.SubmitRTT = append(cl.res.SubmitRTT, time.Since(start).Seconds())
	}
	if err != nil {
		cl.res.Tally.add(outcomeTransport)
		return
	}
	if code/100 != 2 {
		cl.res.Tally.add(outcomeOfCode(code))
		return
	}
	// A 200 usually means a result-cache hit, but a job that finishes
	// before its submit is answered is 200 too; the view tells them apart.
	if v.Cached {
		cl.res.Cached++
	} else {
		cl.res.Accepted++
	}
	wait := time.Duration(0)
	for !terminal(v.Status) {
		time.Sleep(wait)
		if wait = 2 * wait; wait < pollFirst {
			wait = pollFirst
		} else if wait > pollMax {
			wait = pollMax
		}
		h := cl.rec.begin(id, "server.poll", root)
		t := time.Now()
		code, err = cl.d.cli.call(http.MethodGet, "/v1/jobs/"+v.ID, nil, &v)
		cl.rec.end(h)
		if cl.rec != nil {
			cl.res.PollRTT = append(cl.res.PollRTT, time.Since(t).Seconds())
			cl.res.Polls++
		}
		if err != nil {
			cl.res.Tally.add(outcomeTransport)
			return
		}
		if code != http.StatusOK {
			cl.res.Tally.add(outcomeOfCode(code))
			return
		}
	}
	lat := time.Since(start).Seconds()
	switch v.Status {
	case server.StatusPartial:
		cl.res.Tally.add(outcomePartial)
		return
	case server.StatusFailed:
		cl.res.Tally.add(outcomeFailed)
		return
	case server.StatusCancelled:
		cl.res.Tally.add(outcomeCancelled)
		return
	}
	h = cl.rec.begin(id, "server.result", root)
	t := time.Now()
	doc := &server.ResultDoc{}
	code, err = cl.d.cli.call(http.MethodGet, "/v1/results/"+v.ID, nil, doc)
	cl.rec.end(h)
	if err != nil {
		cl.res.Tally.add(outcomeTransport)
		return
	}
	if code != http.StatusOK {
		cl.res.Tally.add(outcomeOfCode(code))
		return
	}
	if cl.rec != nil {
		cl.res.ResultRTT = append(cl.res.ResultRTT, time.Since(t).Seconds())
		if !doc.Cached {
			cl.res.JobOverhead = append(cl.res.JobOverhead, lat-float64(doc.DurationNS)/1e9)
		}
	}
	cl.res.Tally.add(outcomeOK)
	cl.res.JobLat = append(cl.res.JobLat, lat)
	if cl.res.PlanLat == nil {
		cl.res.PlanLat = map[string][]float64{}
	}
	cl.res.PlanLat[c.Plan] = append(cl.res.PlanLat[c.Plan], lat)
	if !doc.Cached {
		cl.res.Mined++
	}
	if bad := checkJob(cl.w.Name, cl.refs, id, c, doc); bad != "" {
		cl.res.Mismatches = append(cl.res.Mismatches, bad)
	}
}

// batch posts the next batch of the client's stream and waits for its ack.
func (cl *closedLoop) batch() {
	sp := cl.w.Streams[cl.idx]
	cl.seq++
	id := fmt.Sprintf("c%d-seq%d", cl.idx, cl.seq)
	root := cl.rec.begin(id, "batch", -1)
	defer cl.rec.end(root)
	req := server.BatchRequest{Seq: cl.seq, Baskets: sp.Batches[int(cl.seq-1)%len(sp.Batches)]}
	start := time.Now()
	h := cl.rec.begin(id, "server.batch_post", root)
	var doc server.StreamDeltaDoc
	code, err := cl.d.cli.call(http.MethodPost, "/v1/streams/"+cl.d.streams[cl.idx]+"/batches", req, &doc)
	cl.rec.end(h)
	lat := time.Since(start).Seconds()
	switch {
	case err != nil:
		cl.res.Tally.add(outcomeTransport)
		return
	case code != http.StatusOK:
		cl.res.Tally.add(outcomeOfCode(code))
		return
	case doc.Duplicate || doc.Seq != cl.seq:
		// The benchmark never retries, so a duplicate ack is a wrong answer.
		cl.res.Tally.add(outcomeWrong)
		return
	}
	cl.res.Tally.add(outcomeOK)
	cl.res.BatchLat = append(cl.res.BatchLat, lat)
	cl.res.Acked++
	if doc.Remined {
		cl.res.Remined++
	}
	if cl.rec != nil {
		cl.res.BatchOverhead = append(cl.res.BatchOverhead, lat-(doc.VerifyMillis+doc.MineMillis)/1e3)
	}
}
