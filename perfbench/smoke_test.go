package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"scaltool/internal/apps"
	"scaltool/internal/machine"
)

// The smoke test runs every workload, timed and traced, at tiny lengths
// and checks the result line against BENCHMARK.json's contract. Run it
// from this directory: go test .

// TestMain lets the test binary stand in for perfbench when the
// memory-bandwidth probe re-executes it.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "--membw-probe" {
		os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func loadSpec(t *testing.T) *benchSpec {
	t.Helper()
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.DisallowUnknownFields()
	var spec benchSpec
	if err := dec.Decode(&spec); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return &spec
}

func TestBenchmarkSpecLimits(t *testing.T) {
	spec := loadSpec(t)
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics; want 1..16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics; want 1..128", n)
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads; want 2..8", n)
	}
	seen := map[string]bool{}
	check := func(name, unit string) {
		if !metricName.MatchString(name) {
			t.Errorf("bad name %q", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
		if unit != "" && !regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`).MatchString(unit) {
			t.Errorf("%s: bad unit %q", name, unit)
		}
	}
	for _, w := range spec.Workloads {
		check(w.Name, "")
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	setup := false
	for _, m := range spec.EndToEnd {
		check(m.Name, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in s, lower better")
	}
	for _, m := range spec.PerLayer {
		check(m.Name, m.Unit)
	}
	for _, w := range spec.Workloads {
		if !slices.Contains(workloadNames, w.Name) {
			t.Errorf("BENCHMARK.json workload %s is not one the benchmark runs (%v)", w.Name, workloadNames)
		}
	}
}

// run executes the benchmark in-process and decodes its last line.
func run(t *testing.T, args ...string) (*result, string) {
	t.Helper()
	var out, errb bytes.Buffer
	if code := realMain(args, &out, &errb); code != 0 {
		t.Fatalf("perfbench %v: exit %d: %s\n%s", args, code, errb.String(), out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return &res, out.String()
}

func TestWorkloadsSmoke(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			for _, trace := range []string{"0", "1"} {
				res, out := run(t, "--workload", w, "--seed", "7", "--seconds", "1", "--trace", trace)
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("trace %s: correct=%v attempted=%d failed=%d\n%s", trace, res.Correct, res.Attempted, res.Failed, out)
				}
				var names []string
				if trace == "0" {
					for _, m := range spec.EndToEnd {
						names = append(names, m.Name)
					}
				} else {
					for _, m := range spec.PerLayer {
						names = append(names, m.Name)
					}
				}
				if len(res.Metrics) != len(names) {
					t.Errorf("trace %s: %d metrics, BENCHMARK.json lists %d", trace, len(res.Metrics), len(names))
				}
				for _, n := range names {
					m, ok := res.Metrics[n]
					if !ok {
						t.Errorf("trace %s: metric %s missing", trace, n)
						continue
					}
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("trace %s: %s = %v", trace, n, m.Value)
					}
				}
				if trace == "1" {
					sum := 0.0
					for _, b := range cpuBuckets {
						sum += res.Metrics["cpu."+b].Value
					}
					if math.Abs(sum-1) > 1e-9 {
						t.Errorf("cpu.* shares sum to %v", sum)
					}
					if !strings.Contains(out, "simulated work") {
						t.Error("traced run printed no simulated-work counts")
					}
				} else if !strings.Contains(out, "responses_sha256") {
					t.Error("timed run printed no responses_sha256")
				}
			}
		})
	}
}

// TestColdGeneratorNeverRepeats checks the analyze_cold generator's
// promise over a long sequence.
func TestColdGeneratorNeverRepeats(t *testing.T) {
	w, err := buildWorkload(wlCold, 3)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := w.prefix(20000)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, d := range seq {
		if seen[string(d.Body)] {
			t.Fatalf("document repeats: %s", d.Body)
		}
		seen[string(d.Body)] = true
	}
}

// TestColdGeneratorCyclesGrids checks that two analyze_cold documents
// building the same base program are at least a cycle of t3dheat's strata
// apart, so the first is out of the 4 MiB run cache when the second runs.
func TestColdGeneratorCyclesGrids(t *testing.T) {
	w, err := buildWorkload(wlCold, 5)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := w.prefix(200)
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.ScaledOrigin()
	last := map[string]int{}
	for i, d := range seq {
		app, err := apps.ByName(d.Req.App)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := app.Build(cfg, 1, d.S0)
		if err != nil {
			t.Fatal(err)
		}
		id := fmt.Sprintf("%s/%d", d.Req.App, prog.DataBytes)
		if j, ok := last[id]; ok && i-j < 12 {
			t.Fatalf("documents %d and %d both build %s", j, i, id)
		}
		last[id] = i
	}
}

// TestProfileAttribution checks the classifier's rules on hand-made
// stacks (innermost frame first).
func TestProfileAttribution(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.memmove", "scaltool/internal/cache.(*Cache).Access", "scaltool/internal/sim.(*engine).run"}, "cache"},
		{[]string{"scaltool/internal/sim.(*Stream).Seq", "scaltool/internal/apps.(*Swim).Build", "scaltool/internal/campaign.(*executor).run"}, "apps"},
		{[]string{"runtime.memmove", "scaltool/internal/sim.(*Result).Clone", "scaltool/internal/runcache.(*Cache).GetOrRun"}, "runcache"},
		{[]string{"crypto/sha256.block", "scaltool/internal/runcache.KeyFor"}, "runcache"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"syscall.Syscall", "internal/poll.(*FD).Read", "net/http.(*conn).serve"}, "http"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "other"},
	}
	for _, c := range cases {
		if got := classify(c.stack); got != c.want {
			t.Errorf("classify(%v) = %s; want %s", c.stack, got, c.want)
		}
	}
}
