// Command perfbench is the repository's end-to-end benchmark. It drives an
// in-process pincerd over loopback HTTP with two closed-loop clients on one
// of its seeded workloads, checks every answer against a reference mine,
// and prints the end-to-end metrics (--trace 0) or the per-layer metrics of
// a traced run and an in-process traced replay (--trace 1).
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload jobs-sparse --seed 1 --seconds 40 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed, and metrics; the line before it is the full
// report (provenance, sample counts, tail percentiles, ratio bases).
// Progress goes to standard error. Scratch files live under .bench_build/
// in the working directory and are removed on exit, except the span dumps
// under .bench_build/traces/.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// config is one invocation.
type config struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	Sizes    sizes
	// Dir is the scratch root; each run works in its own subdirectory.
	Dir string
	Log io.Writer
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the line before it: everything needed to read the metrics.
type report struct {
	Workload   string             `json:"workload"`
	Provenance provenance         `json:"provenance"`
	Traced     bool               `json:"traced"`
	Jobs       latency            `json:"jobs"`
	JobsByPlan map[string]latency `json:"jobs_by_plan"`
	Batches    latency            `json:"batches"`
	// BatchRates are the batch sub-phases' acks per second; batches_per_s
	// is their median.
	BatchRates []float64    `json:"batch_phase_per_s"`
	Remined    int          `json:"batches_remined"`
	Tally      tally        `json:"tally"`
	SetupS     []float64    `json:"setup_s"`
	Streams    []streamInfo `json:"streams"`
	Refs       int          `json:"references"`
	// HarnessHeapMB is the benchmark's own live heap (its inputs and
	// references) when the peak-RSS count restarts; peak_rss_mb includes it.
	HarnessHeapMB float64           `json:"harness_heap_mb"`
	Bases         map[string]string `json:"bases,omitempty"`
	Targets       map[string]string `json:"layer_targets,omitempty"`
	Mismatches    []string          `json:"mismatches,omitempty"`
	SpanFiles     []string          `json:"span_files,omitempty"`
}

type streamInfo struct {
	MinSupport float64 `json:"min_support"`
	Remines    float64 `json:"remine_share"`
	Window     int     `json:"window"`
	Delivered  int     `json:"delivered"`
}

type provenance struct {
	Seed       int64  `json:"seed"`
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	wl := fl.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fl.Int64("seed", 1, "input seed")
	seconds := fl.Float64("seconds", 10, "length of each timed window")
	trace := fl.Int("trace", 0, "1: report per-layer metrics from a traced run and replay")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	known := false
	for _, n := range workloadNames {
		known = known || n == *wl
	}
	if !known {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *wl, strings.Join(workloadNames, ", "))
		return 2
	}
	cfg := config{Workload: *wl, Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
		Sizes: fullSizes, Dir: ".bench_build", Log: stderr}
	res, rep, err := bench(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	for _, m := range rep.Mismatches {
		fmt.Fprintln(stderr, "perfbench: MISMATCH:", m)
	}
	if err := json.NewEncoder(stdout).Encode(rep); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// bench runs one invocation: inputs and references, the untimed set-up,
// the timed window, the gate, and in traced mode the traced window and
// replay.
func bench(cfg config) (*result, *report, error) {
	logf := func(format string, a ...interface{}) { fmt.Fprintf(cfg.Log, "perfbench: "+format+"\n", a...) }
	dir, err := filepath.Abs(filepath.Join(cfg.Dir, fmt.Sprintf("run-%d-%s", os.Getpid(), cfg.Workload)))
	if err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(filepath.Join(dir, "data"), 0o755); err != nil {
		return nil, nil, err
	}
	// The daemon leaves thousands of spool files; deleting them and then
	// waiting for the write-back here keeps their cost out of whatever runs
	// next on this disk.
	defer func() {
		os.RemoveAll(dir)
		syscall.Sync()
	}()

	w, err := buildWorkload(cfg.Workload, cfg.Seed, cfg.Sizes, filepath.Join(dir, "data"))
	if err != nil {
		return nil, nil, err
	}
	refs := newReferences()
	if err := refs.prime(w.distinctCells()); err != nil {
		return nil, nil, err
	}
	logf("%s: seed %d, %d reference answers", w.Name, cfg.Seed, refs.len())

	rep := &report{Workload: w.Name, Provenance: provenanceOf(cfg.Seed), Traced: cfg.Trace, Bases: map[string]string{}}
	window := time.Duration(cfg.Seconds * float64(time.Second))

	rep.HarnessHeapMB = resetPeakRSS()
	setupDir := filepath.Join(dir, "untraced")
	d, t, err := setUp(w, filepath.Join(setupDir, "spool"))
	if err != nil {
		return nil, nil, err
	}
	// setup_s is the median of this set-up and of spare ones timed before
	// every round of the window, so that it samples the host over the
	// whole run rather than in one moment.
	setupTimes := []float64{t}
	spareSetUps := func(round int) error {
		ts, err := timeSetUps(w, setupDir, round*cfg.Sizes.setupsPerRound, cfg.Sizes.setupsPerRound)
		setupTimes = append(setupTimes, ts...)
		return err
	}
	a, bad, err := timedWindow(w, d, refs, window, nil, spareSetUps)
	if err != nil {
		return nil, nil, err
	}
	rep.SetupS = setupTimes
	rep.Mismatches = append(rep.Mismatches, bad...)
	rep.Jobs, rep.Batches, rep.Remined, rep.Tally = summarize(a.JobLat), summarizePhases(a.BatchPhases), a.Remined, a.Tally
	rep.BatchRates = batchRates(a)
	rep.JobsByPlan = map[string]latency{}
	for p, l := range a.PlanLat {
		rep.JobsByPlan[p] = summarize(l)
	}
	for c, sp := range w.Streams {
		rep.Streams = append(rep.Streams, streamInfo{MinSupport: sp.Req.MinSupport, Remines: sp.RemineShare, Window: sp.Req.Window, Delivered: a.Delivered[c]})
	}
	logf("%s: untraced window: %d jobs in %.2fs, %d batches in %.2fs", w.Name, len(a.JobLat), a.JobSeconds, len(a.BatchLat), a.BatchSeconds)

	res := &result{Attempted: a.Tally.Attempted, Failed: a.Tally.Failed, Metrics: map[string]metric{}}
	if !cfg.Trace {
		res.Metrics = endToEnd(a, setupTimes)
	} else {
		if err := traced(cfg, w, refs, dir, window, a, res, rep); err != nil {
			return nil, nil, err
		}
	}
	rep.Refs = refs.len()
	res.Correct = len(rep.Mismatches) == 0 && res.Failed == 0
	return res, rep, nil
}

// timedWindow drives one window on a set-up daemon, gates it, and closes
// the daemon. Its counters are read once it has drained, when every job
// that finished has been counted.
func timedWindow(w *workload, d *daemon, refs *references, window time.Duration, rec *recorder, beforeRound func(int) error) (*loadResult, []string, error) {
	defer d.close()
	res, err := drive(w, d, refs, window, rec, beforeRound)
	if err != nil {
		return nil, nil, err
	}
	bad := append(res.Mismatches, checkStreams(w.Name, w, d, res.Delivered)...)
	if err := d.drain(); err != nil {
		return nil, nil, fmt.Errorf("drain daemon: %w", err)
	}
	m, err := d.counters()
	if err != nil {
		return nil, nil, err
	}
	if err := d.close(); err != nil {
		return nil, nil, fmt.Errorf("close daemon: %w", err)
	}
	bad = append(bad, checkMetrics(w.Name, m, res, len(w.Streams)*w.Streams[0].warmBatches())...)
	res.serverMetrics = m
	return res, bad, nil
}

// endToEnd derives the end-to-end metrics of an untraced window.
func endToEnd(a *loadResult, setupTimes []float64) map[string]metric {
	jobs, batches := summarize(a.JobLat), summarizePhases(a.BatchPhases)
	return map[string]metric{
		"jobs_per_s":    {float64(jobs.N) / a.JobSeconds, "1/s"},
		"job_p50_s":     {jobs.P50, "s"},
		"job_tail_s":    {jobs.Tail, "s"},
		"batches_per_s": {median(batchRates(a)), "1/s"},
		"batch_p50_s":   {batches.P50, "s"},
		"batch_tail_s":  {batches.Tail, "s"},
		"ok_ratio":      {1 - a.Tally.errorRatio(), "ratio"},
		"peak_rss_mb":   {peakRSSMB(), "MB"},
		"setup_s":       {median(setupTimes), "s"},
	}
}

// batchRates is each batch sub-phase's acks per second.
func batchRates(a *loadResult) []float64 {
	var r []float64
	for k, lat := range a.BatchPhases {
		if a.BatchPhaseSeconds[k] > 0 {
			r = append(r, float64(len(lat))/a.BatchPhaseSeconds[k])
		}
	}
	return r
}

// traced runs the traced window and the traced replay and fills in the
// per-layer metrics.
func traced(cfg config, w *workload, refs *references, dir string, window time.Duration, a *loadResult, res *result, rep *report) error {
	logf := func(format string, args ...interface{}) { fmt.Fprintf(cfg.Log, "perfbench: "+format+"\n", args...) }
	d, _, err := setUp(w, filepath.Join(dir, "traced", "spool"))
	if err != nil {
		return err
	}
	rec := newRecorder()
	b, bad, err := timedWindow(w, d, refs, window, rec, nil)
	if err != nil {
		return err
	}
	rep.Mismatches = append(rep.Mismatches, bad...)
	res.Attempted += b.Tally.Attempted
	res.Failed += b.Tally.Failed
	httpSpans := rec.snapshot()
	if err := reconcile(httpSpans, 0.01); err != nil {
		rep.Mismatches = append(rep.Mismatches, fmt.Sprintf("%s: traced window: %v", w.Name, err))
	}
	logf("%s: traced window: %d jobs in %.2fs, %d batches in %.2fs", w.Name, len(b.JobLat), b.JobSeconds, len(b.BatchLat), b.BatchSeconds)

	ckptDir := filepath.Join(dir, "replay")
	if err := os.MkdirAll(ckptDir, 0o755); err != nil {
		return err
	}
	start := time.Now()
	rp, err := replay(w, cfg.Seed, cfg.Sizes, refs, ckptDir)
	if err != nil {
		return err
	}
	rep.Mismatches = append(rep.Mismatches, rp.bad...)
	if err := reconcile(rp.rec.snapshot(), 0.01); err != nil {
		rep.Mismatches = append(rep.Mismatches, fmt.Sprintf("%s: traced replay: %v", w.Name, err))
	}
	logf("%s: traced replay took %.2fs", w.Name, time.Since(start).Seconds())

	m := res.Metrics
	sm := b.serverMetrics
	jobsSubmitted := float64(b.Accepted + b.Cached)
	m["server.submit_rtt_s"] = metric{median(b.SubmitRTT), "s"}
	m["server.poll_rtt_s"] = metric{median(b.PollRTT), "s"}
	m["server.polls_per_job"] = metric{float64(b.Polls) / jobsSubmitted, "count"}
	m["server.result_rtt_s"] = metric{median(b.ResultRTT), "s"}
	m["server.job_overhead_s"] = metric{median(b.JobOverhead), "s"}
	m["server.result_cache_hit_ratio"] = metric{float64(b.Cached) / jobsSubmitted, "ratio"}
	dsHits, dsMisses := sm["pincer_dataset_cache_hits_total"], sm["pincer_dataset_cache_misses_total"]
	m["server.dataset_cache_hit_ratio"] = metric{dsHits / (dsHits + dsMisses), "ratio"}
	m["server.batch_overhead_s"] = metric{median(b.BatchOverhead), "s"}
	m["server.rejected_ratio"] = metric{float64(b.Tally.ByOutcome[outcomeRejected]) / float64(b.Tally.Attempted), "ratio"}
	rep.Targets = layerTargets
	rep.Bases["counting.auto_over_best_fixed"] = rp.layerMetrics(m)
	rep.Bases["cluster.wire_overhead"] = "pincer by local scan counting on the same cells, its checkpoint writes left out"
	m["bench.trace_overhead"] = metric{opsPerSecond(a) / opsPerSecond(b), "ratio"}
	rep.Bases["bench.trace_overhead"] = "untraced operations per second over traced operations per second"

	for name, r := range map[string]*recorder{"http": rec, "replay": rp.rec} {
		path := filepath.Join(cfg.Dir, "traces", fmt.Sprintf("%s-seed%d-%s.json", w.Name, cfg.Seed, name))
		if err := r.write(path); err != nil {
			return err
		}
		rep.SpanFiles = append(rep.SpanFiles, path)
	}
	sort.Strings(rep.SpanFiles)
	return nil
}

// resetPeakRSS returns the memory input generation used to the OS and
// restarts the kernel's peak-RSS count, so peak_rss_mb covers the daemon
// and the load rather than input generation. Where the kernel does not
// allow it the peak covers the whole process. It returns the live heap
// left, in MB: what the benchmark itself holds through the window.
func resetPeakRSS() float64 {
	runtime.GC()
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort; see above
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// opsPerSecond is jobs and batches completed over the window's length.
func opsPerSecond(r *loadResult) float64 {
	return float64(len(r.JobLat)+len(r.BatchLat)) / r.Seconds
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB; where
// /proc is missing it falls back to the Go runtime's total reservation.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

func provenanceOf(seed int64) provenance {
	return provenance{
		Seed:       seed,
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commitOf("."),
	}
}

// commitOf names the code under test: the git commit when the tree is a
// repository, else a SHA-256 over the module's Go sources and go.mod, so a
// checkout without git history is still identified.
func commitOf(root string) string {
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() && path != root && strings.HasPrefix(e.Name(), ".") {
			return filepath.SkipDir
		}
		if !e.IsDir() && (strings.HasSuffix(path, ".go") || e.Name() == "go.mod") {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(b))
			h.Write(b)
		}
		return nil
	})
	if err != nil {
		return "unknown: " + err.Error()
	}
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
