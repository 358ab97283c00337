// Command perfbench is scaltool's benchmark: named traffic mixes against
// an in-process serve.Server configured like a default scaltoold, reached
// over loopback HTTP, with every response checked.
//
//	perfbench --workload analyze_warm --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// the same window again under a CPU profile, replays the sequence's first
// documents through each layer's public functions, and prints the
// per-layer metrics. --workload all runs every workload. The last line of
// standard output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. README.md describes the workloads and metrics.
package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strconv"
	"time"
)

// procStart approximates process start for setup_s.
var procStart = time.Now()

// A run sets its workload up at least minSetups times and until the
// set-ups have taken setupBudget; setup_s is their median. A set-up of a
// few milliseconds is repeated hundreds of times, so its median is past
// the first set-ups' warm-up and steady against the host's jitter.
const (
	minSetups   = 5
	setupBudget = 2 * time.Second
)

// replayDocs is how many leading documents of each workload the traced
// run replays layer by layer.
var replayDocs = map[string]int{wlCold: 10, wlWarm: 19}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the end-to-end metrics with their units, in print order.
var endToEnd = []struct{ name, unit string }{
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"throughput_rps", "1/s"},
	{"cpu_ms_per_req", "ms"},
	{"alloc_mb_per_req", "MB"},
	{"allocs_per_req", "count"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload: "+fmt.Sprint(workloadNames)+" or all")
		seed    = fs.Int64("seed", 1, "workload seed")
		seconds = fs.Float64("seconds", 30, "length of the measured window in seconds")
		trace   = fs.Int("trace", 0, "1 = traced run: per-layer metrics instead of end-to-end ones")
		record  = fs.Bool("record-baseline", false, "replay the seed's documents and store their simulated-work counts in "+baselineFile)
		probe   = fs.Bool("membw-probe", false, "print a memory-bandwidth probe in GB/s and exit (the benchmark runs it in a child process)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *probe {
		fmt.Fprintf(stdout, "%.3f\n", memBandwidthProbe())
		return 0
	}
	names := []string{*name}
	if *name == "all" {
		names = workloadNames
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	if *record {
		for _, n := range names {
			if err := recordBaseline(n, *seed, stdout); err != nil {
				fmt.Fprintln(stderr, "perfbench:", err)
				return 1
			}
		}
		return 0
	}

	facts := gatherHostFacts(*seed)
	total := result{Correct: true, Metrics: map[string]metric{}}
	for i, n := range names {
		start := time.Now()
		if i == 0 {
			start = procStart
		}
		res, err := runWorkload(n, *seed, *seconds, *trace == 1, start, facts, stdout)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, v := range res.Metrics {
			if len(names) > 1 {
				k = n + "." + k
			}
			total.Metrics[k] = v
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// membwProbe runs the memory-bandwidth probe in a child process, so its
// buffers never count in this process's peak RSS.
func membwProbe() float64 {
	exe, err := os.Executable()
	if err != nil {
		return 0
	}
	out, err := exec.Command(exe, "--membw-probe").Output()
	if err != nil {
		return 0
	}
	v, _ := strconv.ParseFloat(string(bytes.TrimSpace(out)), 64)
	return v
}

// setup starts a server for the workload, pre-warms what the workload
// expects warm, and answers every pool document once, checking it and
// recording its body.
func setup(w *workload) (*harness, map[string][]byte, error) {
	h, err := startServer(w.CacheBytes)
	if err != nil {
		return nil, nil, err
	}
	if err := h.prewarmKernels(context.Background(), w.Kernels); err != nil {
		_ = h.close()
		return nil, nil, fmt.Errorf("pre-warming kernels: %w", err)
	}
	recorded := map[string][]byte{}
	for _, d := range w.Pool {
		status, body, err := h.post(d.Route, d.Body)
		if err == nil {
			err = checkBody(d, status, body, nil)
		}
		if err != nil {
			_ = h.close()
			return nil, nil, fmt.Errorf("warming pool document %d (%s %s): %w", d.Pool, d.Route, d.Body, err)
		}
		recorded[d.poolKey()] = body
	}
	return h, recorded, nil
}

// timedRun is one measured window with the /metrics deltas around it.
type timedRun struct {
	win           *window
	before, after promSnapshot
	invalid       string // why a validity guard rejected the window
}

// measureWindow runs one window on a set-up server, with its guards.
func measureWindow(h *harness, w *workload, recorded map[string][]byte, seconds float64) (*timedRun, error) {
	before, err := h.scrape()
	if err != nil {
		return nil, err
	}
	win, err := runWindow(h, w, recorded, time.Duration(seconds*float64(time.Second)))
	if err != nil {
		return nil, err
	}
	after, err := h.scrape()
	if err != nil {
		return nil, err
	}
	tr := &timedRun{win: win, before: before, after: after}
	if w.Name == wlWarm {
		if n := delta(before, after, "scaltool_sim_runs_total"); n != 0 {
			tr.invalid = fmt.Sprintf("%v simulations ran in a window that must be served from the cache", n)
		}
	}
	return tr, nil
}

// runWorkload measures one workload and prints its report.
func runWorkload(name string, seed int64, seconds float64, trace bool, start time.Time, facts hostFacts, out io.Writer) (*result, error) {
	w, err := buildWorkload(name, seed)
	if err != nil {
		return nil, err
	}

	var setupDur []float64
	var h *harness
	var recorded map[string][]byte
	for k, spent := 0, 0.0; ; k++ {
		if k > 0 {
			if err := h.close(); err != nil {
				return nil, err
			}
			// Each later set-up starts from a collected heap, as the
			// first starts from a fresh one.
			runtime.GC()
			start = time.Now()
		}
		if h, recorded, err = setup(w); err != nil {
			return nil, err
		}
		d := time.Since(start).Seconds()
		setupDur = append(setupDur, d)
		if spent += d; k+1 >= minSetups && spent >= setupBudget.Seconds() {
			break
		}
	}

	facts.MemBWGBps = membwProbe()
	tr, err := measureWindow(h, w, recorded, seconds)
	if err != nil {
		_ = h.close()
		return nil, err
	}
	if err := h.close(); err != nil {
		return nil, err
	}
	rss, err := peakRSSBytes()
	if err != nil {
		return nil, err
	}

	st := tr.win.stats()
	done := float64(max(st.ok, 1))
	e2e := map[string]metric{
		"latency_p50_ms":   {ms(st.p50), "ms"},
		"latency_p90_ms":   {ms(st.p90), "ms"},
		"throughput_rps":   {st.rate, "1/s"},
		"cpu_ms_per_req":   {ms(tr.win.cpu) / done, "ms"},
		"alloc_mb_per_req": {float64(tr.win.allocBytes) / 1e6 / done, "MB"},
		"allocs_per_req":   {float64(tr.win.allocs) / done, "count"},
		"peak_rss_mb":      {float64(rss) / 1e6, "MB"},
		"setup_s":          {median(setupDur), "s"},
	}
	sha, covered := tr.win.responsesSHA256()
	factsJSON, _ := json.Marshal(facts)
	fmt.Fprintf(out, "host %s\n", factsJSON)
	fmt.Fprintf(out, "workload %s seed %d: %d requests, %d failed", name, seed, st.attempted, st.failed)
	if tr.invalid != "" {
		fmt.Fprintf(out, ", INVALID: %s", tr.invalid)
	}
	fmt.Fprintln(out)
	if st.firstErr != nil {
		fmt.Fprintf(out, "  first failure: %v\n", st.firstErr)
	}
	for _, m := range endToEnd {
		fmt.Fprintf(out, "  %-22s %14.4f %s\n", m.name, e2e[m.name].Value, m.unit)
	}
	fmt.Fprintf(out, "  %-22s %14.4f ratio\n", "error_rate", float64(st.failed)/float64(max(st.attempted, 1)))
	fmt.Fprintf(out, "  %-22s %14.4f / %.4f ms over the whole window; the metrics cover the %d quietest of %d intervals (%d requests)\n",
		"latency_p50/p90", ms(st.all50), ms(st.all90), st.quiet, st.intervals, st.quietN)
	fmt.Fprintf(out, "  %-22s %14.4f of the host's CPU time over the window, %.4f over the quiet intervals\n",
		"steal", st.steal, st.quietSteal)
	fmt.Fprintf(out, "  %-22s %s (first %d requests)\n", "responses_sha256", sha, covered)
	fmt.Fprintf(out, "  %-22s %d, first %.4f s, min %.4f s, max %.4f s\n", "setups",
		len(setupDur), setupDur[0], slices.Min(setupDur), slices.Max(setupDur))

	res := &result{
		Correct:   st.failed == 0 && tr.invalid == "",
		Attempted: st.attempted,
		Failed:    st.failed,
		Metrics:   e2e,
	}
	if !trace {
		return res, nil
	}
	layers, attempted, failed, err := traceWorkload(w, seconds, tr, ms(st.p50), out)
	if err != nil {
		return nil, err
	}
	res.Attempted += attempted
	res.Failed += failed
	res.Correct = res.Correct && failed == 0
	res.Metrics = layers
	return res, nil
}

// traceWorkload makes the traced run: the same window under a CPU
// profile, then the layer-by-layer replay of the sequence's first
// documents. It returns the per-layer metrics and the requests and replays
// it attempted and failed.
func traceWorkload(w *workload, seconds float64, timed *timedRun, timedP50 float64, out io.Writer) (m map[string]metric, attempted, failed int, err error) {
	m = map[string]metric{}
	put := func(name, unit string, v float64) { m[name] = metric{v, unit} }

	// 1. The profiled window, on a fresh set-up server.
	h, recorded, err := setup(w)
	if err != nil {
		return nil, 0, 0, err
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		_ = h.close()
		return nil, 0, 0, err
	}
	traced, err := measureWindow(h, w, recorded, seconds)
	pprof.StopCPUProfile()
	if cerr := h.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, 0, 0, err
	}
	shares, samples, err := cpuShares(prof.Bytes())
	if err != nil {
		return nil, 0, 0, err
	}
	for _, b := range cpuBuckets {
		put("cpu."+b, "share", shares[b])
	}
	tst := traced.win.stats()
	put("trace.overhead_pct", "%", (ms(tst.p50)-timedP50)/timedP50*100)
	attempted, failed = tst.attempted, tst.failed

	// 2. /metrics deltas over the timed window.
	b, a := timed.before, timed.after
	done := float64(max(len(timed.win.samples), 1))
	hits := delta(b, a, "scaltool_runcache_hits_total")
	shared := delta(b, a, "scaltool_runcache_shared_total")
	misses := delta(b, a, "scaltool_runcache_misses_total")
	put("runcache.hit_ratio", "ratio", ratio(hits+shared, hits+shared+misses))
	put("runcache.misses_per_req", "count", misses/done)
	put("runcache.evictions_per_req", "count", delta(b, a, "scaltool_runcache_evictions_total")/done)
	put("runcache.shared_per_req", "count", shared/done)
	put("sim.runs_per_req", "count", delta(b, a, "scaltool_sim_runs_total")/done)
	put("campaign.runs_per_req", "count", delta(b, a, "scaltool_campaign_runs_started_total")/done)

	// 3. The replay: each of the first K documents sent alone to a
	// set-up server (its latency and body), then replayed through the
	// layers against a run cache set up the same way.
	docs, err := w.prefix(replayDocs[w.Name])
	if err != nil {
		return nil, 0, 0, err
	}
	k := len(docs)
	alone, bodies, err := sendAlone(w, docs)
	if err != nil {
		return nil, 0, 0, err
	}
	rp, rfailed, err := replayAll(w, docs, bodies)
	if err != nil {
		return nil, 0, 0, err
	}
	attempted += k
	failed += rfailed
	st := rp.st
	for _, l := range replayLayers {
		us, allocs := st.perReq(l)
		put(l+"_us", "us", us)
		put(l+"_allocs", "count", allocs)
	}
	put("sim.host_ns_per_access", "ns", ratio(float64(st.layers["sim.run"].ns), float64(st.simulated.Accesses)))
	put("trace.layer_coverage", "ratio", ratio(float64(st.coveredNS()), float64(alone.Nanoseconds())))
	n := float64(st.docs)
	put("sim.maccesses_per_req", "M", float64(st.work.Accesses)/1e6/n)
	put("sim.mcycles_per_req", "M", float64(st.work.WallCycles)/1e6/n)
	put("cache.l2_misses_per_req", "count", float64(st.work.L2Misses)/n)
	put("memdsm.tlb_misses_per_req", "count", float64(st.work.TLBMisses)/n)
	put("directory.invalidations_per_req", "count", float64(st.work.Invalidations)/n)

	fmt.Fprintf(out, "traced run: %d profile samples, %d requests (%d failed), replayed %d documents (%d differ from the server's)\n",
		samples, tst.attempted, tst.failed, k, rfailed)
	if traced.invalid != "" {
		fmt.Fprintf(out, "  traced window INVALID: %s\n", traced.invalid)
		failed++
	}
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(out, "  %-34s %16.6f %s\n", name, m[name].Value, m[name].Unit)
	}
	workJSON, _ := json.Marshal(st.work)
	fmt.Fprintf(out, "  simulated work (first %d documents): %s\n", k, workJSON)
	note, same := compareBaseline(w.Name, w.Seed, st.work)
	fmt.Fprintf(out, "  %s\n", note)
	if !same {
		failed++
	}
	return m, attempted, failed, nil
}

// sendAlone sends each document alone to a freshly set-up server and
// returns their summed latency and their checked bodies.
func sendAlone(w *workload, docs []*doc) (time.Duration, [][]byte, error) {
	h, recorded, err := setup(w)
	if err != nil {
		return 0, nil, err
	}
	defer h.close()
	var total time.Duration
	bodies := make([][]byte, len(docs))
	for i, d := range docs {
		t := time.Now()
		status, body, err := h.post(d.Route, d.Body)
		total += time.Since(t)
		if err == nil {
			if d.Pool >= 0 {
				err = checkPooled(d, status, body, recorded)
			} else {
				err = checkBody(d, status, body, nil)
			}
		}
		if err != nil {
			return 0, nil, fmt.Errorf("document %d sent alone: %w", i, err)
		}
		bodies[i] = body
	}
	return total, bodies, nil
}

// replayAll replays docs against a run cache set up like the workload's
// and counts the replies that differ from the server's bodies.
func replayAll(w *workload, docs []*doc, bodies [][]byte) (*replayer, int, error) {
	h, _, err := setup(w)
	if err != nil {
		return nil, 0, err
	}
	defer h.close()
	rp := newReplayer(h.cache)
	failed := 0
	for i, d := range docs {
		body, err := rp.replay(context.Background(), d)
		if err != nil {
			return nil, 0, fmt.Errorf("replaying document %d: %w", i, err)
		}
		if bodies != nil && !bytes.Equal(body, bodies[i]) {
			failed++
		}
	}
	return rp, failed, nil
}

// storedBaseline is simwork_baseline.json as built into the benchmark.
//
//go:embed simwork_baseline.json
var storedBaseline []byte

// baselineFile is where --record-baseline stores counts, relative to the
// repository root.
const baselineFile = "perfbench/simwork_baseline.json"

// recordBaseline replays a seed's documents and stores their simulated
// work counts in baselineFile.
func recordBaseline(name string, seed int64, out io.Writer) error {
	w, err := buildWorkload(name, seed)
	if err != nil {
		return err
	}
	docs, err := w.prefix(replayDocs[name])
	if err != nil {
		return err
	}
	rp, _, err := replayAll(w, docs, nil)
	if err != nil {
		return err
	}
	base := map[string]simWork{}
	if buf, err := os.ReadFile(baselineFile); err == nil {
		if err := json.Unmarshal(buf, &base); err != nil {
			return fmt.Errorf("%s: %w", baselineFile, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	base[baselineKey(name, seed)] = rp.st.work
	buf, err := json.MarshalIndent(base, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(baselineFile, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "recorded %s: %+v\n", baselineKey(name, seed), rp.st.work)
	return nil
}

func baselineKey(name string, seed int64) string { return fmt.Sprintf("%s/seed=%d", name, seed) }

// compareBaseline describes how the replay's simulated work compares with
// the stored counts for this workload and seed. It reports false, a failed
// check, when the stored baseline is unreadable or its entry differs; a
// seed without an entry has nothing to compare.
func compareBaseline(name string, seed int64, got simWork) (string, bool) {
	var base map[string]simWork
	if err := json.Unmarshal(storedBaseline, &base); err != nil {
		return fmt.Sprintf("simulated-work baseline: unreadable (%v)", err), false
	}
	key := baselineKey(name, seed)
	want, ok := base[key]
	switch {
	case !ok:
		return "simulated-work baseline: no entry for " + key, true
	case want != got:
		return fmt.Sprintf("simulated-work baseline: DIFFERS from %s: stored %+v", key, want), false
	}
	return "simulated-work baseline: identical to " + key, true
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
