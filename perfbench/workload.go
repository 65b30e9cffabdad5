package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"pincer/internal/counting"
	"pincer/internal/dataset"
	"pincer/internal/itemset"
	"pincer/internal/quest"
	"pincer/internal/server"
	"pincer/internal/vertical"
)

// Workload names, as passed to --workload.
const (
	wlSparse = "jobs-sparse"
	wlDense  = "jobs-dense"
)

var workloadNames = []string{wlSparse, wlDense}

// Plans a job cell may ask for. "pincer+cluster" is the pincer miner with
// its counting spread over the daemon's loopback workers.
const (
	planAuto     = "auto"
	planPincer   = "pincer"
	planTidList  = "pincer/tidlist"
	planFPMax    = "fpmax"
	planVertical = "vertical"
	planCluster  = "pincer+cluster"
)

// sizes scales a workload's inputs. fullSizes is the benchmark;
// tinySizes keeps the package's own tests fast.
type sizes struct {
	sparseSets      int // jobs-sparse datasets
	sparseTx        int // |D| of each
	denseSets       int // jobs-dense datasets
	denseTx         int // |D| of each
	streamBatches   int // distinct batches per stream (replayed cyclically)
	streamBatchTx   int // transactions per batch
	streamWindow    int // sliding window of every stream
	ops             int // length of the fixed request list
	replayCells     int // distinct job cells the traced replay mines
	replayBatches   int // batches per stream the traced replay applies
	setupsPerRound  int // spare daemon set-ups timed before each round (see drive)
	batchesPerRound int // batches sent in each round (see drive)
}

var fullSizes = sizes{
	sparseSets:      6,
	sparseTx:        10000,
	denseSets:       48,
	denseTx:         1500,
	streamBatches:   24,
	streamBatchTx:   500,
	streamWindow:    3000,
	ops:             40000,
	replayCells:     6,
	replayBatches:   40,
	setupsPerRound:  4,
	batchesPerRound: 350,
}

var tinySizes = sizes{
	sparseSets:      2,
	sparseTx:        1500,
	denseSets:       2,
	denseTx:         300,
	streamBatches:   12,
	streamBatchTx:   20,
	streamWindow:    100,
	ops:             800,
	replayCells:     2,
	replayBatches:   4,
	setupsPerRound:  1,
	batchesPerRound: 4,
}

// genDataset is one generated database, written to a basket file that
// jobs name by dataset_path. Only its file holds the transactions: the
// benchmark reads them back when it needs them, so they do not sit in the
// process while the daemon is measured.
type genDataset struct {
	Name string
	Path string
	N    int    // transactions
	Auto string // the plan an auto job resolves to, in this package's vocabulary
}

// load parses the dataset from its file, as the daemon does.
func (g *genDataset) load() (*dataset.Dataset, error) {
	f, err := os.Open(g.Path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return dataset.ReadBasket(f)
}

// cell is one distinct job: a dataset mined at one support by one plan.
type cell struct {
	DS         *genDataset
	MinSupport float64
	Plan       string
}

func (c *cell) name() string {
	return fmt.Sprintf("%s/s=%g/%s", c.DS.Name, c.MinSupport, c.Plan)
}

func (c *cell) minCount() int64 { return dataset.MinCountFor(c.DS.N, c.MinSupport) }

// request renders the cell as the POST /v1/jobs body.
func (c *cell) request() server.JobRequest {
	r := server.JobRequest{MinSupport: c.MinSupport, DatasetPath: c.DS.Path}
	switch c.Plan {
	case planTidList:
		r.Miner, r.Counter = server.MinerPincer, "tidlist"
	case planCluster:
		r.Miner, r.Cluster = server.MinerPincer, true
	default:
		r.Miner = c.Plan
	}
	return r
}

// op is one step of a closed loop: a job (Cell set) or the next batch of
// the stream of the client that takes it.
type op struct {
	Cell *cell
}

// streamPlan is one pincerd stream and the batches fed to it. Batch seq k
// (1-based) carries Batches[(k-1) % len(Batches)]. The batches are kept as
// the text the daemon receives; txs parses one back when a reference or
// the replay needs its transactions.
type streamPlan struct {
	Req     server.StreamRequest
	Batches []string
	BatchTx int // transactions per batch
	// RemineShare is the share of steady-state batches that move the
	// border at the chosen threshold, computed from the data.
	RemineShare float64
}

// warmBatches is how many batches fill the window before timing starts.
func (s *streamPlan) warmBatches() int {
	n := (s.Req.Window + s.BatchTx - 1) / s.BatchTx
	if n > len(s.Batches) {
		n = len(s.Batches)
	}
	return n
}

// txs parses the transactions of the k-th batch (0-based, cyclic).
func (s *streamPlan) txs(k int) []dataset.Transaction {
	d, err := dataset.ReadBasket(strings.NewReader(s.Batches[k%len(s.Batches)]))
	if err != nil {
		panic(fmt.Sprintf("perfbench: batch %d of a generated stream does not parse: %v", k, err))
	}
	return d.Transactions()
}

// window returns the transactions live after `delivered` batches.
func (s *streamPlan) window(delivered int) []dataset.Transaction {
	var out []dataset.Transaction
	for k := delivered - 1; k >= 0 && len(out) < s.Req.Window; k-- {
		out = append(s.txs(k), out...)
	}
	if len(out) > s.Req.Window {
		out = out[len(out)-s.Req.Window:]
	}
	return out
}

// workload is everything one run needs: the daemon's shape, the streams it
// opens, and the fixed request list.
type workload struct {
	Name string
	// ClusterWorkers is the number of loopback counting workers.
	ClusterWorkers int
	Streams        []*streamPlan // one per client
	// Ops is the request list the clients consume in order: each client
	// takes the next operation when its previous one completes.
	Ops []op
	// BatchesPerRound is how many batches each round of the window sends
	// (see drive).
	BatchesPerRound int
}

// clients is the closed-loop client count; it matches the two CPUs the
// benchmark is sized for.
const clients = 2

// buildWorkload generates a workload's inputs from the seed. The datasets'
// basket files are written under dir.
func buildWorkload(name string, seed int64, sz sizes, dir string) (*workload, error) {
	var w *workload
	var err error
	switch name {
	case wlSparse:
		w, err = buildSparse(seed, sz, dir)
	case wlDense:
		w, err = buildDense(seed, sz, dir)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
	}
	if err != nil {
		return nil, err
	}
	for c := 0; c < clients; c++ {
		w.Streams = append(w.Streams, buildStreamPlan(seed*10+int64(c)+7, sz, companionSearch))
	}
	w.BatchesPerRound = sz.batchesPerRound
	return w, nil
}

// questDataset generates a database into a basket file under dir. Its
// size and auto plan are taken from the file read back, which is what the
// daemon sees.
func questDataset(name string, p quest.Params, dir string) (*genDataset, error) {
	var buf bytes.Buffer
	if err := dataset.WriteBasket(&buf, quest.Generate(p)); err != nil {
		return nil, err
	}
	path, err := filepath.Abs(filepath.Join(dir, name+".basket"))
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	d, err := dataset.ReadBasket(&buf)
	if err != nil {
		return nil, err
	}
	auto := planOfSelection(counting.SelectEngine(d.Profile()))
	return &genDataset{Name: name, Path: path, N: d.Len(), Auto: auto}, nil
}

// crossCells crosses datasets × supports × plans.
func crossCells(ds []*genDataset, sups []float64, plans []string) []*cell {
	var out []*cell
	for _, d := range ds {
		for _, s := range sups {
			for _, p := range plans {
				out = append(out, &cell{DS: d, MinSupport: s, Plan: p})
			}
		}
	}
	return out
}

// roundOps deals shuffled rounds of every cell into one request list.
func roundOps(cells []*cell, rng *rand.Rand, sz sizes) []op {
	var ops []op
	for len(ops) < sz.ops {
		round := append([]*cell(nil), cells...)
		rng.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
		for _, c := range round {
			ops = append(ops, op{Cell: c})
		}
	}
	return ops
}

// rounds is how many rounds the window runs as; each sends batchesPerRound
// batches and runs jobs for the rest of its share of the window (see
// drive). The batch metrics are medians over the rounds, so contention in
// a few of them does not move them. With 350 batches a round, a 40-s
// window leaves either workload a few hundred jobs (the jobs-dense
// datasets are sized so its jobs are not much faster than jobs-sparse's),
// well inside the 200-999 range where the job tail is a p95.
const rounds = 8

// buildSparse: scattered Quest T10.I4 (|L|=2000, N=1000) mined at 0.75–2%
// by the auto plan and by plain pincer, submitted by dataset_path.
func buildSparse(seed int64, sz sizes, dir string) (*workload, error) {
	var ds []*genDataset
	for i := 0; i < sz.sparseSets; i++ {
		p := quest.Params{NumTransactions: sz.sparseTx, AvgTxLen: 10, AvgPatternLen: 4,
			NumPatterns: 2000, NumItems: 1000, Seed: seed*100 + int64(i)}
		g, err := questDataset(fmt.Sprintf("sparse%d-%s", i, p.Name()), p, dir)
		if err != nil {
			return nil, err
		}
		ds = append(ds, g)
	}
	cells := crossCells(ds, []float64{0.0075, 0.01, 0.0125, 0.015, 0.0175, 0.02}, []string{planAuto, planPincer})
	return &workload{
		Name: wlSparse,
		Ops:  roundOps(cells, rand.New(rand.NewSource(seed)), sz),
	}, nil
}

// buildDense: concentrated Quest T20.I10 (|L|=50, N=1000) mined by five
// plans, one of them over the loopback cluster.
func buildDense(seed int64, sz sizes, dir string) (*workload, error) {
	var ds []*genDataset
	for i := 0; i < sz.denseSets; i++ {
		p := quest.Params{NumTransactions: sz.denseTx, AvgTxLen: 20, AvgPatternLen: 10,
			NumPatterns: 50, NumItems: 1000, Seed: seed*100 + 50 + int64(i)}
		g, err := questDataset(fmt.Sprintf("dense%d-%s", i, p.Name()), p, dir)
		if err != nil {
			return nil, err
		}
		ds = append(ds, g)
	}
	cells := crossCells(ds, []float64{0.08, 0.1, 0.12},
		[]string{planAuto, planPincer, planTidList, planFPMax, planCluster})
	return &workload{
		Name: wlDense, ClusterWorkers: 2,
		Ops: roundOps(cells, rand.New(rand.NewSource(seed)), sz),
	}, nil
}

// thresholdSearch is where and for what a stream's threshold is chosen:
// a grid from lo to hi in steps of thresholdStep, and the share of
// steady-state batches whose delta should move the border (and so force a
// re-mine).
type thresholdSearch struct {
	lo, hi float64
	target float64
	// preferHigh breaks ties toward the highest threshold instead of the
	// lowest.
	preferHigh bool
}

var (
	// windowSearch puts a third of the traced replay's batches in re-mines,
	// so the replay measures the incremental layer's fast path and its
	// re-mines.
	windowSearch = thresholdSearch{lo: 0.15, hi: 0.45, target: 1.0 / 3}
	// companionSearch serves the streams the clients feed: the highest
	// threshold at which no batch re-mines, so their batches measure the
	// write path, not mining, on a state of much the same size whatever the
	// seed.
	companionSearch = thresholdSearch{lo: 0.30, hi: 0.45, target: 0, preferHigh: true}
)

const (
	thresholdStep = 0.0025
	// maxFloorItemsets bounds the itemsets frequent at a search's floor in
	// one window; a stream with a longer frequent pattern raises the floor
	// so that the search stays cheap.
	maxFloorItemsets = 20000
	floorStep        = 0.025
)

// buildStreamPlan generates a concentrated T20.I10 stream (|L|=50, N=1000)
// cut into fixed-size batches and chooses its threshold with
// chooseThreshold.
func buildStreamPlan(seed int64, sz sizes, search thresholdSearch) *streamPlan {
	p := quest.Params{NumTransactions: sz.streamBatches * sz.streamBatchTx, AvgTxLen: 20, AvgPatternLen: 10,
		NumPatterns: 50, NumItems: 1000, Seed: seed}
	txs := quest.Generate(p).Transactions()
	sp := &streamPlan{BatchTx: sz.streamBatchTx}
	var batches [][]dataset.Transaction
	for i := 0; i+sz.streamBatchTx <= len(txs); i += sz.streamBatchTx {
		b := txs[i : i+sz.streamBatchTx]
		batches = append(batches, b)
		sp.Batches = append(sp.Batches, basketText(b))
	}
	minSup, share := chooseThreshold(batches, sz.streamWindow, search)
	sp.Req = server.StreamRequest{MinSupport: minSup, Window: sz.streamWindow}
	sp.RemineShare = share
	return sp
}

// chooseThreshold picks a stream's threshold from its data alone. For each
// window position of the cyclic batch sequence it counts the itemsets
// frequent at the search's floor; a batch moves the border at a threshold
// iff some itemset's count crosses the threshold's count between the window
// before the batch and the window after it. It returns the grid threshold
// whose share of border-moving batches is closest to the target, and that
// share.
func chooseThreshold(batches [][]dataset.Transaction, window int, s thresholdSearch) (float64, float64) {
	n := len(batches)
	windowAt := func(k int) *dataset.Dataset {
		var txs []dataset.Transaction
		for j := k; len(txs) < window && j > k-n; j-- {
			txs = append(append([]dataset.Transaction(nil), batches[(j+n)%n]...), txs...)
		}
		if len(txs) > window {
			txs = txs[len(txs)-window:]
		}
		return dataset.New(txs)
	}
	for s.lo+floorStep <= s.hi && vertical.Eclat(windowAt(0), s.lo, vertical.DefaultOptions()).Frequent.Len() > maxFloorItemsets {
		s.lo += floorStep
	}
	// counts returns the counts of the itemsets frequent at the floor in
	// the window that ends with batch k.
	counts := func(k int) map[string]int64 {
		out := map[string]int64{}
		vertical.Eclat(windowAt(k), s.lo, vertical.DefaultOptions()).Frequent.Each(func(x itemset.Itemset, c int64) {
			out[x.Key()] = c
		})
		return out
	}
	below := dataset.MinCountFor(window, s.lo) - 1 // any count an absent itemset may have
	var grid []int64
	for t := s.lo; t <= s.hi+1e-9; t += thresholdStep {
		grid = append(grid, dataset.MinCountFor(window, t))
	}
	moved := make([]int, len(grid))
	prev := counts(n - 1)
	for k := 0; k < n; k++ {
		cur := counts(k)
		hit := make([]bool, len(grid))
		mark := func(a, b int64) {
			if a > b {
				a, b = b, a
			}
			for g, m := range grid {
				if a < m && m <= b {
					hit[g] = true
				}
			}
		}
		for key, c := range cur {
			p, ok := prev[key]
			if !ok {
				p = below
			}
			mark(p, c)
		}
		for key, p := range prev {
			if _, ok := cur[key]; !ok {
				mark(p, below)
			}
		}
		for g := range grid {
			if hit[g] {
				moved[g]++
			}
		}
		prev = cur
	}
	dist := func(g int) float64 { return math.Abs(float64(moved[g])/float64(n) - s.target) }
	best := 0
	for g := range grid {
		if dist(g) < dist(best) || (s.preferHigh && dist(g) == dist(best)) {
			best = g
		}
	}
	t := s.lo + thresholdStep*float64(best)
	return math.Round(t*1e4) / 1e4, float64(moved[best]) / float64(n)
}

func basketText(txs []dataset.Transaction) string {
	var b strings.Builder
	for _, t := range txs {
		for i, it := range t {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprint(&b, int(it))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// distinctCells returns the cells of the request list in the order the
// clients first reach them, deduplicated.
func (w *workload) distinctCells() []*cell {
	seen := map[*cell]bool{}
	var out []*cell
	for _, o := range w.Ops {
		if o.Cell != nil && !seen[o.Cell] {
			seen[o.Cell] = true
			out = append(out, o.Cell)
		}
	}
	return out
}
