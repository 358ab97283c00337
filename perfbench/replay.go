package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"time"

	"scaltool/internal/admission"
	"scaltool/internal/apps"
	"scaltool/internal/campaign"
	"scaltool/internal/counters"
	"scaltool/internal/diagnose"
	"scaltool/internal/health"
	"scaltool/internal/machine"
	"scaltool/internal/model"
	"scaltool/internal/runcache"
	"scaltool/internal/serve"
	"scaltool/internal/sim"
)

// The replay walks documents one at a time through the public functions
// of each layer, in the order the server calls them, timing each call and
// counting its heap allocations. Its response bytes must equal the
// server's for the same document, which shows it did the server's work.

// replayLayers are the per-layer timings the replay produces, in the
// server's order. runcache.lookup is Cache.GetOrRun minus the time in its
// run function (sim.run); it includes GetOrRun's own key computation,
// which runcache.key times on its own.
var replayLayers = []string{
	"serve.decode", "serve.validate", "admission.price", "apps.build",
	"runcache.key", "runcache.lookup", "sim.run", "model.fit",
	"diagnose.run", "serve.encode",
}

// coverageLayers are the layers whose times sum to a request's measured
// work (runcache.key is inside runcache.lookup).
var coverageLayers = []string{
	"serve.decode", "serve.validate", "admission.price", "apps.build",
	"runcache.lookup", "sim.run", "model.fit", "diagnose.run", "serve.encode",
}

type layerCost struct {
	ns     int64
	allocs uint64
}

// simWork is the simulated work of a set of runs: exact counts that a
// speed-only change must leave identical.
type simWork struct {
	Runs          uint64 `json:"runs"`
	Accesses      uint64 `json:"accesses"`
	WallCycles    uint64 `json:"wall_cycles"`
	L2Misses      uint64 `json:"l2_misses"`
	TLBMisses     uint64 `json:"tlb_misses"`
	Invalidations uint64 `json:"invalidations"`
}

func (w *simWork) add(r *sim.Result) {
	t := r.Report.Total()
	w.Runs++
	w.Accesses += t[counters.GradLoads] + t[counters.GradStores]
	w.WallCycles += r.Report.WallCycles
	w.L2Misses += t[counters.L2Misses]
	w.TLBMisses += t[counters.TLBMisses]
	w.Invalidations += r.Ground.Invalidations
}

// replayStats accumulates a replay.
type replayStats struct {
	docs   int
	layers map[string]*layerCost
	// simulated counts the runs the replay actually simulated (cache
	// misses) and their accesses, for sim.host_ns_per_access.
	simulated simWork
	// work covers every run the replayed requests used, simulated or
	// served from the cache.
	work simWork
}

func newReplayStats() *replayStats {
	st := &replayStats{layers: map[string]*layerCost{}}
	for _, l := range replayLayers {
		st.layers[l] = &layerCost{}
	}
	return st
}

// timed runs f, charging its wall time and heap allocations to layer.
func (st *replayStats) timed(layer string, f func() error) error {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	lc := st.layers[layer]
	lc.ns += d.Nanoseconds()
	lc.allocs += m1.Mallocs - m0.Mallocs
	return err
}

// perReq returns a layer's mean microseconds and allocations per request.
func (st *replayStats) perReq(layer string) (us, allocs float64) {
	lc := st.layers[layer]
	n := float64(max(st.docs, 1))
	return float64(lc.ns) / 1e3 / n, float64(lc.allocs) / n
}

// coveredNS is the replayed work of all requests, counting each layer
// once.
func (st *replayStats) coveredNS() int64 {
	var ns int64
	for _, l := range coverageLayers {
		ns += st.layers[l].ns
	}
	return ns
}

// replayer replays documents the way a server configured like the
// benchmark's would execute them.
type replayer struct {
	cfg        machine.Config
	budget     admission.Budget
	simWorkers int
	cache      *runcache.Cache
	st         *replayStats
}

func newReplayer(cache *runcache.Cache) *replayer {
	return &replayer{
		cfg:        machine.ScaledOrigin(),
		budget:     admission.Budget{MaxProcs: 64},
		simWorkers: runtime.GOMAXPROCS(0),
		cache:      cache,
		st:         newReplayStats(),
	}
}

// job kinds in the campaign's dispatch order, with their run-id names.
const (
	jobBase = iota
	jobUni
	jobSync
	jobSpin
)

var jobNames = [...]string{jobBase: "base", jobUni: "uni", jobSync: "ksync", jobSpin: "kspin"}

type job struct {
	kind, procs int
	size        uint64
}

// replay runs one document and returns its encoded response body.
func (rp *replayer) replay(ctx context.Context, d *doc) ([]byte, error) {
	st := rp.st
	st.docs++
	cfg := rp.cfg

	var req serve.Request
	if err := st.timed("serve.decode", func() error {
		dec := json.NewDecoder(bytes.NewReader(d.Body))
		dec.DisallowUnknownFields()
		return dec.Decode(&req)
	}); err != nil {
		return nil, fmt.Errorf("decode: %w", err)
	}

	var app apps.App
	var plan campaign.Plan
	if err := st.timed("serve.validate", func() error {
		if req.Program != nil {
			if rej := req.Program.Validate(); rej != nil {
				return rej
			}
			app = req.Program.App()
		} else {
			var err error
			if app, err = apps.ByName(req.App); err != nil {
				return err
			}
		}
		if req.Procs == 0 {
			req.Procs = 32
		}
		if req.Machine == "" {
			req.Machine = "scaled"
		}
		if rej := rp.budget.CheckShape(req.Procs, req.S0); rej != nil {
			return rej
		}
		var err error
		if plan, err = campaign.NewPlan(app, cfg, req.Procs, req.S0); err != nil {
			return err
		}
		if rej := rp.budget.CheckShape(req.Procs, plan.S0); rej != nil {
			return rej
		}
		return nil
	}); err != nil {
		return nil, fmt.Errorf("validate: %w", err)
	}

	if err := st.timed("admission.price", func() error {
		estimate := rp.budget.EstimatePlan
		if d.Route == routeDiagnose {
			estimate = rp.budget.EstimateDiagnose
		}
		cost, rej := estimate(cfg, app, plan, rp.simWorkers)
		if rej != nil {
			return rej
		}
		if rej := rp.budget.CheckRequest(cost); rej != nil {
			return rej
		}
		return nil
	}); err != nil {
		return nil, fmt.Errorf("price: %w", err)
	}

	res, err := rp.campaign(ctx, app, plan)
	if err != nil {
		return nil, err
	}

	var body []byte
	if d.Route == routeDiagnose {
		var rep *diagnose.Report
		if err := st.timed("diagnose.run", func() error {
			fam, err := diagnose.FromCampaign(res)
			if err != nil {
				return err
			}
			nmax := plan.ProcCounts[len(plan.ProcCounts)-1]
			prog, err := app.Build(cfg, nmax, plan.S0)
			if err != nil {
				return err
			}
			if rep, err = diagnose.Run(ctx, diagnose.BuildGraph(prog), fam, diagnose.Options{}); err != nil {
				return err
			}
			rep.App = req.Ident()
			rep.Machine = req.Machine
			return rep.Verify()
		}); err != nil {
			return nil, fmt.Errorf("diagnose: %w", err)
		}
		err = st.timed("serve.encode", func() error {
			var buf bytes.Buffer
			err := json.NewEncoder(&buf).Encode(rep)
			body = buf.Bytes()
			return err
		})
		return body, err
	}

	var m *model.Model
	if err := st.timed("model.fit", func() error {
		opts := model.DefaultOptions(cfg.L2.SizeBytes)
		opts.RawTmN = req.RawTm
		var err error
		m, err = res.FitContext(ctx, opts)
		return err
	}); err != nil {
		return nil, fmt.Errorf("fit: %w", err)
	}
	err = st.timed("serve.encode", func() error {
		var buf bytes.Buffer
		err := json.NewEncoder(&buf).Encode(responseOf(&req, plan, m))
		body = buf.Bytes()
		return err
	})
	return body, err
}

// campaign executes the plan's runs one at a time in the campaign's
// dispatch order: build, key, cached lookup (simulating on a miss),
// sanitize, record.
func (rp *replayer) campaign(ctx context.Context, app apps.App, plan campaign.Plan) (*campaign.Result, error) {
	st, cfg := rp.st, rp.cfg
	res := &campaign.Result{
		Plan:        plan,
		Machine:     cfg,
		BaseRuns:    map[int]*sim.Result{},
		UniRuns:     map[uint64]*sim.Result{},
		SyncKernels: map[int]*sim.Result{},
		Health:      health.NewReport(),
	}
	nmax := plan.ProcCounts[len(plan.ProcCounts)-1]
	var jobs []job
	for _, n := range plan.ProcCounts {
		jobs = append(jobs, job{jobBase, n, plan.S0}, job{jobSync, n, 0})
	}
	for _, s := range plan.UniSizes {
		jobs = append(jobs, job{jobUni, 1, s})
	}
	jobs = append(jobs, job{jobSpin, max(nmax, 2), 0})

	minCPI := cfg.Cost.ComputeCPI
	if c := cfg.Cost.L1HitCPI; c > 0 && c < minCPI {
		minCPI = c
	}
	minCPI /= 2

	for _, j := range jobs {
		var prog *sim.Program
		err := st.timed("apps.build", func() error {
			var err error
			switch j.kind {
			case jobBase, jobUni:
				prog, err = app.Build(cfg, j.procs, j.size)
			case jobSync:
				prog, err = apps.BuildSyncKernel(cfg, j.procs, apps.SyncKernelBarriers)
			case jobSpin:
				prog, err = apps.BuildSpinKernel(cfg, j.procs, 20, 50_000)
			}
			return err
		})
		if err != nil {
			if j.kind == jobUni {
				res.Skipped = append(res.Skipped, j.size)
				continue
			}
			return nil, fmt.Errorf("build: %w", err)
		}
		_ = st.timed("runcache.key", func() error {
			runcache.KeyFor(cfg, prog)
			return nil
		})

		var inner time.Duration
		var innerAllocs uint64
		var out *sim.Result
		var hit bool
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		out, hit, err = rp.cache.GetOrRun(ctx, cfg, prog, func(rctx context.Context) (*sim.Result, error) {
			in0 := time.Now()
			var a, b runtime.MemStats
			runtime.ReadMemStats(&a)
			s0 := time.Now()
			r, err := sim.RunContext(rctx, cfg, prog)
			simNS := time.Since(s0)
			runtime.ReadMemStats(&b)
			sc := st.layers["sim.run"]
			sc.ns += simNS.Nanoseconds()
			sc.allocs += b.Mallocs - a.Mallocs
			innerAllocs = b.Mallocs - a.Mallocs
			inner = time.Since(in0)
			return r, err
		})
		total := time.Since(t0)
		runtime.ReadMemStats(&m1)
		lc := st.layers["runcache.lookup"]
		lc.ns += (total - inner).Nanoseconds()
		lc.allocs += m1.Mallocs - m0.Mallocs - innerAllocs
		if err != nil {
			return nil, fmt.Errorf("run: %w", err)
		}
		if !hit {
			st.simulated.add(out)
		}
		st.work.add(out)

		id := campaign.RunID(jobNames[j.kind], j.procs, j.size)
		clean, findings := health.Sanitize(id, &out.Report, minCPI)
		if health.ShouldQuarantine(findings) {
			return nil, fmt.Errorf("run %s quarantined: %v", id, findings)
		}
		res.Health.Add(findings...)
		out.Report = *clean
		switch j.kind {
		case jobBase:
			res.BaseRuns[j.procs] = out
			if j.procs == 1 {
				res.UniRuns[out.DataBytes] = out
			}
		case jobUni:
			res.UniRuns[out.DataBytes] = out
		case jobSync:
			res.SyncKernels[j.procs] = out
		case jobSpin:
			res.SpinKernel = out
		}
	}
	res.Health.Finalize()
	sort.Slice(res.Skipped, func(i, k int) bool { return res.Skipped[i] < res.Skipped[k] })
	if len(res.UniRuns) < 3 {
		return nil, fmt.Errorf("only %d usable uniprocessor runs", len(res.UniRuns))
	}
	return res, nil
}

// responseOf renders a fitted model as the /v1/analyze response document.
func responseOf(req *serve.Request, plan campaign.Plan, m *model.Model) *serve.Response {
	resp := &serve.Response{
		App:     req.Ident(),
		Machine: req.Machine,
		Procs:   req.Procs,
		S0:      plan.S0,
		Model: serve.ModelParams{
			CPI0:       m.CPI0,
			T2:         m.T2,
			Tm1:        m.Tm1,
			Compulsory: m.Compulsory,
			CpiImb:     m.CpiImb,
			FitRMSE:    m.FitRMSE,
			FitR2:      m.FitR2,
			FitSizes:   m.FitSizes,
		},
	}
	if m.Degradation.Degraded {
		resp.Degraded = m.Degradation.Summary()
	}
	for _, sp := range m.Speedups() {
		resp.Speedups = append(resp.Speedups, serve.SpeedupPoint{Procs: sp.Procs, Wall: sp.Wall, Speedup: sp.Speedup})
	}
	for _, bp := range m.Breakdown() {
		resp.Breakdown = append(resp.Breakdown, serve.BreakdownRow{
			Procs:        bp.Procs,
			Base:         bp.Base,
			L2Lim:        bp.L2Lim(),
			Sync:         bp.Sync,
			Imb:          bp.Imb,
			MP:           bp.MP(),
			Interpolated: bp.Interpolated,
		})
	}
	return resp
}
