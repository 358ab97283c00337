package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"time"

	"scaltool/internal/apps"
	"scaltool/internal/machine"
	"scaltool/internal/obs"
	"scaltool/internal/runcache"
	"scaltool/internal/serve"
	"scaltool/internal/sim"
)

// defaultCacheBytes is scaltoold's default -cache-mb.
const defaultCacheBytes = 256 << 20

// harness is one in-process serve.Server configured like a default
// scaltoold (workers and sim-workers = GOMAXPROCS, metrics on, tracing off,
// info-level logging), listening on loopback.
type harness struct {
	srv    *serve.Server
	cache  *runcache.Cache
	http   *http.Server
	base   string
	client *http.Client
	done   chan error
}

// startServer binds 127.0.0.1:0 and serves until close.
func startServer(cacheBytes int64) (*harness, error) {
	if cacheBytes <= 0 {
		cacheBytes = defaultCacheBytes
	}
	cache := runcache.New(runcache.Options{MaxBytes: cacheBytes})
	srv := serve.New(serve.Options{
		Workers:    runtime.GOMAXPROCS(0),
		SimWorkers: runtime.GOMAXPROCS(0),
		MaxProcs:   64,
		Cache:      cache,
		Obs: &obs.Observer{
			Metrics: obs.NewMetrics(),
			// scaltoold logs at info; the lines are formatted as in
			// production and dropped.
			Logger: obs.NewLogger(io.Discard, slog.LevelInfo, false),
		},
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	h := &harness{
		srv:   srv,
		cache: cache,
		http: &http.Server{
			Handler:           srv.Handler(),
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       30 * time.Second,
		},
		base: "http://" + ln.Addr().String(),
		client: &http.Client{
			Transport: &http.Transport{
				MaxConnsPerHost:     2,
				MaxIdleConnsPerHost: 2,
				DisableCompression:  true,
			},
			Timeout: 120 * time.Second,
		},
		done: make(chan error, 1),
	}
	go func() {
		err := h.http.Serve(ln)
		if err == http.ErrServerClosed {
			err = nil
		}
		h.done <- err
	}()
	return h, nil
}

// close drains the server and waits for its listener goroutine.
func (h *harness) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	derr := h.srv.Drain(ctx)
	serr := h.http.Shutdown(ctx)
	h.client.CloseIdleConnections()
	err := <-h.done
	for _, e := range []error{derr, serr, err} {
		if e != nil {
			return e
		}
	}
	return nil
}

// post sends one document and returns the status and body.
func (h *harness) post(route string, body []byte) (int, []byte, error) {
	resp, err := h.client.Post(h.base+route, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, b, nil
}

// prewarmKernels runs the estimation kernels every campaign at these
// processor counts shares (a barrier-loop kernel per count up to the
// largest, a spin kernel at each) through the server's run cache.
func (h *harness) prewarmKernels(ctx context.Context, maxProcs []int) error {
	cfg := machine.ScaledOrigin()
	var progs []*sim.Program
	seen := map[int]bool{}
	for _, nmax := range maxProcs {
		for n := 1; n <= nmax; n *= 2 {
			if seen[n] {
				continue
			}
			seen[n] = true
			p, err := apps.BuildSyncKernel(cfg, n, apps.SyncKernelBarriers)
			if err != nil {
				return err
			}
			progs = append(progs, p)
		}
		p, err := apps.BuildSpinKernel(cfg, max(nmax, 2), 20, 50_000)
		if err != nil {
			return err
		}
		progs = append(progs, p)
	}
	for _, p := range progs {
		if _, _, err := h.cache.GetOrRun(ctx, cfg, p, func(rctx context.Context) (*sim.Result, error) {
			return sim.RunContext(rctx, cfg, p)
		}); err != nil {
			return err
		}
	}
	return nil
}

// scrape reads the server's /metrics as a map from series (name plus
// label set, as printed) to value.
func (h *harness) scrape() (promSnapshot, error) {
	resp, err := h.client.Get(h.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	snap := promSnapshot{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics: %q: %v", line, err)
		}
		snap[line[:i]] = v
	}
	return snap, sc.Err()
}

// promSnapshot is one /metrics scrape.
type promSnapshot map[string]float64

// sum adds every series of the named family.
func (s promSnapshot) sum(name string) float64 {
	var total float64
	for series, v := range s {
		fam := series
		if i := strings.IndexByte(series, '{'); i >= 0 {
			fam = series[:i]
		}
		if fam == name {
			total += v
		}
	}
	return total
}

// delta returns after − before for a family (see sum).
func delta(before, after promSnapshot, name string) float64 {
	return after.sum(name) - before.sum(name)
}
