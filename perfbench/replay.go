package main

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"pincer/internal/checkpoint"
	"pincer/internal/cluster"
	"pincer/internal/core"
	"pincer/internal/counting"
	"pincer/internal/dataset"
	"pincer/internal/fpmax"
	"pincer/internal/incremental"
	"pincer/internal/itemset"
	"pincer/internal/mfi"
	"pincer/internal/obsv"
	"pincer/internal/vertical"
)

// The traced replay mines the workload's first distinct job cells again
// in-process, by every plan below, and applies a stream's batches to a
// fresh incremental maintainer. Spans wrap the calls into each
// module's public functions and the seams the program exports: the
// core.PassCounter and checkpoint.Checkpointer the pincer miner accepts,
// the cluster coordinator as a PassCounter, and the maintainer's Delta.

// fixedPlans are the plans `auto` is compared against.
var fixedPlans = []string{planPincer, planTidList, planFPMax, planVertical}

// timedCounter records one span per counting call of a pass counter.
type timedCounter struct {
	inner  core.PassCounter
	rec    *recorder
	op     string
	parent int
	names  [3]string // pass 1, pass 2, pass ≥ 3
}

func (t *timedCounter) CountItems(numItems int, elems []itemset.Itemset, elemBits []*itemset.Bitset) ([]int64, []int64) {
	h := t.rec.begin(t.op, t.names[0], t.parent)
	defer t.rec.end(h)
	return t.inner.CountItems(numItems, elems, elemBits)
}

func (t *timedCounter) CountPairs(numItems int, live itemset.Itemset, elems []itemset.Itemset, elemBits []*itemset.Bitset) (*counting.Triangle, []int64) {
	h := t.rec.begin(t.op, t.names[1], t.parent)
	defer t.rec.end(h)
	return t.inner.CountPairs(numItems, live, elems, elemBits)
}

func (t *timedCounter) CountCandidates(engine counting.Engine, candidates []itemset.Itemset, elems []itemset.Itemset, elemBits []*itemset.Bitset) ([]int64, []int64) {
	h := t.rec.begin(t.op, t.names[2], t.parent)
	defer t.rec.end(h)
	return t.inner.CountCandidates(engine, candidates, elems, elemBits)
}

var (
	localPassNames   = [3]string{"counting.pass1", "counting.pass2", "counting.passk"}
	clusterPassNames = [3]string{"cluster.count", "cluster.count", "cluster.count"}
)

// timedCheckpointer records one span per checkpoint write.
type timedCheckpointer struct {
	inner  checkpoint.Checkpointer
	rec    *recorder
	op     string
	parent int
	took   time.Duration // summed over the writes
}

func (t *timedCheckpointer) Save(st *checkpoint.State) error {
	h := t.rec.begin(t.op, "core.checkpoint", t.parent)
	defer t.rec.end(h)
	start := time.Now()
	defer func() { t.took += time.Since(start) }()
	return t.inner.Save(st)
}

func (t *timedCheckpointer) Load() (*checkpoint.State, error) { return t.inner.Load() }
func (t *timedCheckpointer) Clear() error                     { return t.inner.Clear() }

// replayCluster is a pool of loopback counting workers whose pool metrics
// land in a registry the replay can read.
type replayCluster struct {
	servers []*http.Server
	served  []chan struct{}
	pool    *cluster.Pool
	reg     *obsv.Registry
}

func startReplayCluster(n int) (*replayCluster, error) {
	rc := &replayCluster{reg: obsv.NewRegistry()}
	var addrs []string
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			rc.close()
			return nil, err
		}
		hs := &http.Server{Handler: cluster.NewWorker(cluster.WorkerConfig{ID: fmt.Sprintf("replay%d", i)}), ReadHeaderTimeout: 5 * time.Second}
		done := make(chan struct{})
		go func() {
			defer close(done)
			_ = hs.Serve(ln) // returns http.ErrServerClosed once close runs
		}()
		rc.servers = append(rc.servers, hs)
		rc.served = append(rc.served, done)
		addrs = append(addrs, "http://"+ln.Addr().String())
	}
	pool, err := cluster.NewPool(addrs, cluster.PoolConfig{
		HeartbeatInterval: 100 * time.Millisecond,
		LivenessDeadline:  5 * time.Second,
		Registry:          rc.reg,
	})
	if err != nil {
		rc.close()
		return nil, err
	}
	pool.Start()
	rc.pool = pool
	return rc, nil
}

func (rc *replayCluster) close() {
	if rc.pool != nil {
		rc.pool.Close()
	}
	for i, hs := range rc.servers {
		hs.Close()
		<-rc.served[i]
	}
}

// replayer accumulates the per-layer figures of one traced replay.
type replayer struct {
	rec  *recorder
	refs *references
	dir  string // checkpoint files
	rc   *replayCluster
	bad  []string

	parseBytes int64
	// Per plan, the summed wall clock of its mines over the replayed cells,
	// checkpoint writes left out.
	planTime map[string]time.Duration
	autoTime time.Duration
	// Counts from the pincer mines' statistics and the counters.
	candidates, mfcsElems, intersections int64
	scanPasses, corePasses               int64
	rpcs, retries                        int64

	batches, fast, checked int
	stateBytes             int64
	verify, remine         time.Duration
}

// replay runs the traced replay of w. The streams the clients feed never
// re-mine, so the replay applies a stream of its own from the seed, with a
// third of its batches re-mining, and measures both paths of the
// incremental layer.
func replay(w *workload, seed int64, sz sizes, refs *references, dir string) (*replayer, error) {
	rc, err := startReplayCluster(2)
	if err != nil {
		return nil, fmt.Errorf("replay cluster: %w", err)
	}
	defer rc.close()
	rp := &replayer{rec: newRecorder(), refs: refs, dir: dir, rc: rc, planTime: map[string]time.Duration{}}
	cells := w.distinctCells()
	if len(cells) > sz.replayCells {
		cells = cells[:sz.replayCells]
	}
	for i, c := range cells {
		if err := rp.job(fmt.Sprintf("replay-job%d", i), c); err != nil {
			return nil, err
		}
	}
	if err := rp.stream(0, buildStreamPlan(seed*10+9, sz, windowSearch), sz.replayBatches); err != nil {
		return nil, err
	}
	return rp, nil
}

// job replays one cell: parse, profile, plan selection, then one mine per
// plan, each diffed against the reference.
func (rp *replayer) job(op string, c *cell) error {
	root := rp.rec.begin(op, "replay.job", -1)
	defer rp.rec.end(root)
	b, err := os.ReadFile(c.DS.Path)
	if err != nil {
		return err
	}
	h := rp.rec.begin(op, "dataset.parse", root)
	d, err := dataset.ReadBasket(bytes.NewReader(b))
	rp.rec.end(h)
	if err != nil {
		return fmt.Errorf("replay %s: parse: %w", c.name(), err)
	}
	rp.parseBytes += int64(len(b))
	h = rp.rec.begin(op, "dataset.profile", root)
	prof := d.Profile()
	rp.rec.end(h)
	h = rp.rec.begin(op, "plan.select", root)
	sel := counting.SelectEngine(prof)
	rp.rec.end(h)

	mc := dataset.MinCountFor(d.Len(), c.MinSupport)
	times := map[string]time.Duration{}
	for _, plan := range append(fixedPlans, planCluster) {
		t, err := rp.mine(op, root, plan, d, c, mc)
		if err != nil {
			return err
		}
		times[plan] = t
		rp.planTime[plan] += t
	}
	auto := planOfSelection(sel)
	t, ok := times[auto]
	if !ok {
		return fmt.Errorf("replay %s: auto resolved to %q, which is no fixed plan", c.name(), auto)
	}
	rp.autoTime += t
	return nil
}

func planOfSelection(sel counting.Selection) string {
	if sel.Algorithm == planPincer && sel.Counter == "tidlist" {
		return planTidList
	}
	return sel.Algorithm
}

// mine runs one plan on d under a span and checks its answer. It returns
// the plan's wall clock less any checkpoint writes, so that every plan is
// timed on mining alone.
func (rp *replayer) mine(op string, root int, plan string, d *dataset.Dataset, c *cell, mc int64) (time.Duration, error) {
	var res *mfi.Result
	var ckpt time.Duration
	var err error
	start := time.Now()
	switch plan {
	case planFPMax:
		h := rp.rec.begin(op, "fpmax.mine", root)
		res = &fpmax.MineMaximalCount(d, mc, fpmax.DefaultOptions()).Result
		rp.rec.end(h)
	case planVertical:
		opt := vertical.DefaultOptions()
		opt.KeepFrequent = false
		h := rp.rec.begin(op, "vertical.mine", root)
		res = &vertical.MineMaximal(d, c.MinSupport, opt).Result
		rp.rec.end(h)
	case planPincer, planTidList, planCluster:
		res, ckpt, err = rp.minePincer(op, root, plan, d, mc)
	default:
		return 0, fmt.Errorf("replay: no plan %q", plan)
	}
	took := time.Since(start) - ckpt
	if err != nil {
		return 0, fmt.Errorf("replay %s by %s: %w", c.name(), plan, err)
	}
	want, err := rp.refs.get(refKey{DS: c.DS, MinCount: mc, Plan: refPlanFor(plan)})
	if err != nil {
		return 0, err
	}
	if signature(res.MFS, res.MFSSupports) != want {
		rp.bad = append(rp.bad, fmt.Sprintf("replay %s: %s by %s differs from the %s reference", op, c.name(), plan, refPlanFor(plan)))
	}
	return took, nil
}

// minePincer runs core.MineCount with a timed counter: the scan counter,
// a tid-list counter, or a cluster coordinator. The scan run also writes
// its pass-barrier checkpoints, as pincerd does, and returns their time.
func (rp *replayer) minePincer(op string, root int, plan string, d *dataset.Dataset, mc int64) (*mfi.Result, time.Duration, error) {
	opt := core.DefaultOptions()
	opt.KeepFrequent = false
	names := localPassNames
	var inner core.PassCounter
	var tl *counting.TidListCounter
	var coord *cluster.Coordinator
	switch plan {
	case planPincer:
		inner = core.NewScanCounter(dataset.NewScanner(d))
	case planTidList:
		h := rp.rec.begin(op, "counting.tidlist_build", root)
		tl = counting.NewTidListCounter(d, counting.TidListOptions{})
		rp.rec.end(h)
		inner = tl
	case planCluster:
		h := rp.rec.begin(op, "cluster.coordinator", root)
		var err error
		coord, err = cluster.NewCoordinator(op, d, rp.rc.pool, nil)
		rp.rec.end(h)
		if err != nil {
			return nil, 0, err
		}
		inner, names = coord, clusterPassNames
	}
	h := rp.rec.begin(op, "core.mine", root)
	opt.Counter = &timedCounter{inner: inner, rec: rp.rec, op: op, parent: h, names: names}
	var ckpt *timedCheckpointer
	if plan == planPincer {
		ckpt = &timedCheckpointer{
			inner: checkpoint.NewFileCheckpointer(filepath.Join(rp.dir, op+".ckpt")),
			rec:   rp.rec, op: op, parent: h,
		}
		opt.Checkpointer = ckpt
	}
	res, err := core.MineCount(dataset.NewScanner(d), mc, opt)
	rp.rec.end(h)
	if err != nil {
		return nil, 0, err
	}
	rp.corePasses += int64(res.Stats.Passes)
	switch plan {
	case planPincer:
		rp.candidates += res.Stats.Candidates
		rp.mfcsElems += res.Stats.MFCSCandidates
		rp.scanPasses += int64(res.Stats.Passes)
	case planTidList:
		rp.intersections += tl.TakeIntersections().Total
	case planCluster:
		doc := coord.Doc()
		rp.rpcs += doc.RPCs
		rp.retries += doc.Retries
	}
	if ckpt != nil {
		return res, ckpt.took, nil
	}
	return res, 0, nil
}

// stream applies the stream's warm-up batches untimed, then n more under
// spans: the append (delta verification and any re-mine) and the snapshot
// the daemon writes after every batch. The final MFS is checked.
func (rp *replayer) stream(c int, sp *streamPlan, n int) error {
	m, err := incremental.New(incremental.Options{MinSupport: sp.Req.MinSupport, Window: sp.Req.Window})
	if err != nil {
		return err
	}
	warm := sp.warmBatches()
	for k := 0; k < warm+n; k++ {
		txs := sp.txs(k)
		if k < warm {
			if _, err := m.Append(txs); err != nil {
				return err
			}
			continue
		}
		op := fmt.Sprintf("replay-stream%d-seq%d", c, k+1)
		root := rp.rec.begin(op, "replay.batch", -1)
		h := rp.rec.begin(op, "incremental.append", root)
		delta, err := m.Append(txs)
		rp.rec.end(h)
		if err != nil {
			rp.rec.end(root)
			return fmt.Errorf("replay stream %d seq %d: %w", c, k+1, err)
		}
		h = rp.rec.begin(op, "incremental.snapshot", root)
		b, err := incremental.EncodeState(m.Snapshot())
		rp.rec.end(h)
		rp.rec.end(root)
		if err != nil {
			return err
		}
		rp.batches++
		if !delta.Remined {
			rp.fast++
		}
		rp.checked += delta.Checked
		rp.verify += delta.VerifyDuration
		rp.remine += delta.MineDuration
		rp.stateBytes += int64(len(b))
	}
	win := dataset.New(sp.window(warm + n))
	ref := fpmax.MineMaximalCount(win, m.MinCount(), fpmax.DefaultOptions())
	if signature(m.MFS(), m.MFSSupports()) != signature(ref.MFS, ref.MFSSupports) || m.MinCount() != dataset.MinCountFor(win.Len(), sp.Req.MinSupport) {
		rp.bad = append(rp.bad, fmt.Sprintf("replay stream %d: maintained MFS differs from the fpmax reference", c))
	}
	return nil
}

// layerMetrics turns the replay into its per-layer metrics.
func (rp *replayer) layerMetrics(out map[string]metric) (autoBase string) {
	lt := layerTotals(rp.rec.snapshot())
	total := func(name string) float64 {
		if l := lt[name]; l != nil {
			return l.Total.Seconds()
		}
		return 0
	}
	count := func(name string) float64 {
		if l := lt[name]; l != nil {
			return float64(l.N)
		}
		return 0
	}
	parse := total("dataset.parse")
	out["dataset.parse_s"] = metric{parse, "s"}
	out["dataset.parse_mb_per_s"] = metric{float64(rp.parseBytes) / 1e6 / parse, "MB/s"}
	out["dataset.profile_s"] = metric{total("dataset.profile"), "s"}
	out["counting.pass1_s"] = metric{total("counting.pass1"), "s"}
	out["counting.pass2_s"] = metric{total("counting.pass2"), "s"}
	out["counting.passk_s"] = metric{total("counting.passk"), "s"}
	out["counting.candidates"] = metric{float64(rp.candidates), "count"}
	out["counting.mfcs_elems"] = metric{float64(rp.mfcsElems), "count"}
	out["counting.intersections"] = metric{float64(rp.intersections), "count"}
	out["counting.scan_passes"] = metric{float64(rp.scanPasses), "count"}
	best := fixedPlans[0]
	for _, p := range fixedPlans {
		if rp.planTime[p] < rp.planTime[best] {
			best = p
		}
	}
	out["counting.auto_over_best_fixed"] = metric{rp.autoTime.Seconds() / rp.planTime[best].Seconds(), "ratio"}
	var coreSelf float64
	if l := lt["core.mine"]; l != nil {
		coreSelf = l.Self.Seconds()
	}
	out["core.self_s"] = metric{coreSelf, "s"}
	out["core.passes"] = metric{float64(rp.corePasses), "count"}
	out["core.checkpoint_s"] = metric{total("core.checkpoint"), "s"}
	out["core.checkpoints"] = metric{count("core.checkpoint"), "count"}
	out["fpmax.mine_s"] = metric{total("fpmax.mine"), "s"}
	out["vertical.mine_s"] = metric{total("vertical.mine"), "s"}
	out["cluster.count_s"] = metric{total("cluster.count"), "s"}
	out["cluster.wire_overhead"] = metric{rp.planTime[planCluster].Seconds() / rp.planTime[planPincer].Seconds(), "ratio"}
	out["cluster.rpcs"] = metric{float64(rp.rpcs), "count"}
	out["cluster.retries"] = metric{float64(rp.retries), "count"}
	out["cluster.shards_pushed"] = metric{float64(rp.rc.reg.Snapshot()["pincer_cluster_shards_pushed_total"]), "count"}
	n := float64(rp.batches)
	out["incremental.append_s"] = metric{total("incremental.append"), "s"}
	out["incremental.verify_s"] = metric{rp.verify.Seconds(), "s"}
	out["incremental.remine_s"] = metric{rp.remine.Seconds(), "s"}
	out["incremental.fast_path_ratio"] = metric{float64(rp.fast) / n, "ratio"}
	out["incremental.checked_per_batch"] = metric{float64(rp.checked) / n, "count"}
	out["incremental.snapshot_s"] = metric{total("incremental.snapshot"), "s"}
	out["incremental.state_bytes"] = metric{float64(rp.stateBytes) / n, "bytes"}
	return best
}
