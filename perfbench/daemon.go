package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"pincer/internal/loadgen"
	"pincer/internal/server"
)

// daemon is one in-process pincerd on a loopback listener, started by
// loadgen.StartLocal, plus its loopback counting workers and the streams
// the workload feeds.
type daemon struct {
	ld      *loadgen.LocalDaemon
	lc      *loadgen.LocalCluster
	cli     *client
	streams []string // stream ids, one per client
}

// startDaemon constructs the daemon on an empty spool with its result
// cache off, so that every job submitted is mined, opens the workload's
// streams, and returns once it answers /healthz.
func startDaemon(w *workload, spool string) (d *daemon, err error) {
	if err := os.MkdirAll(spool, 0o755); err != nil {
		return nil, err
	}
	d = &daemon{}
	defer func() {
		if err != nil {
			d.close()
		}
	}()
	cfg := server.Config{SpoolDir: spool, CacheMaxBytes: -1}
	if w.ClusterWorkers > 0 {
		if d.lc, err = loadgen.StartLocalCluster(w.ClusterWorkers, nil); err != nil {
			return d, fmt.Errorf("start loopback workers: %w", err)
		}
		cfg.Cluster = d.lc.Pool()
	}
	if d.ld, err = loadgen.StartLocal(cfg); err != nil {
		return d, fmt.Errorf("start daemon: %w", err)
	}
	d.cli = newClient(d.ld.URL())
	if code, err := d.cli.call(http.MethodGet, "/healthz", nil, nil); err != nil || code != http.StatusOK {
		return d, fmt.Errorf("daemon not healthy: code %d: %v", code, err)
	}
	for i, sp := range w.Streams {
		var v server.StreamView
		code, err := d.cli.call(http.MethodPost, "/v1/streams", sp.Req, &v)
		if err != nil || code != http.StatusCreated {
			return d, fmt.Errorf("open stream %d: code %d: %v", i, code, err)
		}
		d.streams = append(d.streams, v.ID)
	}
	return d, nil
}

// drain lets every job the daemon holds finish, so its counters are final.
func (d *daemon) drain() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return d.ld.Server().Drain(ctx)
}

// close stops the daemon and its workers; closing again does nothing. A
// loopback worker that outlives its shutdown grace (the pool may have just
// dialed it) is only logged: its listener is closed either way.
func (d *daemon) close() error {
	var err error
	if d.ld != nil {
		err = d.ld.Close()
		d.ld = nil
	}
	if d.lc != nil {
		if err := d.lc.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: loopback worker shutdown:", err)
		}
		d.lc = nil
	}
	if d.cli != nil {
		d.cli.hc.CloseIdleConnections()
	}
	return err
}

// setUp builds a daemon on the empty spool, timing construction through
// readiness in seconds.
func setUp(w *workload, spool string) (*daemon, float64, error) {
	// Neither a collection of the benchmark's garbage nor the write-back of
	// earlier spools may land inside the timing.
	runtime.GC()
	syscall.Sync()
	start := time.Now()
	d, err := startDaemon(w, spool)
	if err != nil {
		return nil, 0, err
	}
	return d, time.Since(start).Seconds(), nil
}

// timeSetUps times n more set-ups on fresh spools under dir, named from
// first on, closing each daemon and removing its spool.
func timeSetUps(w *workload, dir string, first, n int) ([]float64, error) {
	var times []float64
	for i := first; i < first+n; i++ {
		spool := filepath.Join(dir, fmt.Sprintf("spool%d", i))
		d, t, err := setUp(w, spool)
		if err != nil {
			return nil, err
		}
		times = append(times, t)
		if err := d.close(); err != nil {
			return nil, fmt.Errorf("close set-up daemon: %w", err)
		}
		if err := os.RemoveAll(spool); err != nil {
			return nil, err
		}
	}
	return times, nil
}

// client is a JSON-over-HTTP caller. All callers share one transport
// capped at one connection per client goroutine.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     clients,
		MaxIdleConnsPerHost: clients,
		IdleConnTimeout:     90 * time.Second,
		DisableCompression:  true,
	}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: 120 * time.Second}}
}

// call sends in (when non-nil) as JSON and decodes a 2xx body into out
// (when non-nil). Non-2xx bodies are drained and dropped.
func (c *client) call(method, path string, in, out interface{}) (int, error) {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return 0, err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, body)
	if err != nil {
		return 0, err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 || out == nil {
		_, err := io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, err
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return resp.StatusCode, fmt.Errorf("decode %s %s: %w", method, path, err)
	}
	return resp.StatusCode, nil
}

// counters renders the daemon's registry the way /metrics serves it and
// parses it into series → value.
func (d *daemon) counters() (map[string]float64, error) {
	var b bytes.Buffer
	if err := d.ld.Server().Registry().WritePrometheus(&b); err != nil {
		return nil, err
	}
	return parseProm(b.String()), nil
}

func parseProm(text string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}
