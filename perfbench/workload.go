package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"

	"scaltool/internal/admission"
	"scaltool/internal/apps"
	"scaltool/internal/campaign"
	"scaltool/internal/machine"
	"scaltool/internal/serve"
)

// Routes the workloads send to.
const (
	routeAnalyze  = "/v1/analyze"
	routeDiagnose = "/v1/diagnose"
)

// Workload names, as BENCHMARK.json and the README refer to them.
const (
	wlCold = "analyze_cold"
	wlWarm = "analyze_warm"
)

var workloadNames = []string{wlCold, wlWarm}

// coldApps is the analyze_cold rotation.
var coldApps = []string{"swim", "hydro2d", "t3dheat", "spmv"}

// s0High is the top of each app's s0 range, as a fraction of its default;
// every range starts at 0.8. hydro2d stops at +15%: from about +16.5% its
// s0/2 run is planned above the model's L2-overflow threshold but built
// below it, so the fit has one overflowing size and the request fails with
// 500 (see README.md).
var s0High = map[string]float64{"swim": 1.2, "hydro2d": 1.15, "t3dheat": 1.2, "spmv": 1.2}

// Apps round s0 to their grid, so nearby s0 values build the same
// program: t3dheat has only 3 grids within ±20% of its default, swim 18,
// spmv about 800. The cold generator samples each range at gridSamples
// points, finds the grids they build, and cycles through them (merged into
// at most maxStrata strata), so consecutive documents of an app never
// build the same base program and every seed sends the same mix of sizes.
const (
	gridSamples = 256
	maxStrata   = 32
)

// coldCacheBytes is analyze_cold's run-cache budget: room for the shared
// estimation kernels (0.7 MB) and about 50 app runs, some six requests'
// worth. An app's base program recurs only after a full cycle of its
// strata (at least 12 requests, t3dheat's), so it has been evicted and
// every base run simulates; a 256 MiB cache would serve those recurrences
// from memory. A smaller budget evicts the kernels too.
const coldCacheBytes = 4 << 20

// doc is one request of a workload's sequence.
type doc struct {
	Route string
	Body  []byte
	Req   serve.Request
	// Ident is the workload name the response must carry (the app, or
	// "user:<name>"); S0 the resolved base size; ProcCounts the plan's
	// processor sweep the response rows must cover.
	Ident      string
	S0         uint64
	ProcCounts []int
	// Pool is the document's index in the workload's warmed pool, or -1
	// for a fresh document.
	Pool int
}

// poolKey identifies a warmed response: the route plus the document bytes.
func (d *doc) poolKey() string { return d.Route + " " + string(d.Body) }

// workload is one named traffic mix, fully generated from the seed.
type workload struct {
	Name string
	Seed int64
	// seq is the request sequence, sent in order; more extends it on
	// demand, so a closed loop runs as far as the server allows.
	mu   sync.Mutex
	seq  []*doc
	more func() (*doc, error)
	// Pool holds the documents setup answers once before timing.
	Pool []*doc
	// CacheBytes is the run-cache budget (0 = the scaltoold default).
	CacheBytes int64
	// Kernels asks setup to pre-warm the shared estimation kernels at
	// these processor counts.
	Kernels []int
}

// at returns the i-th document of the sequence, extending it if needed.
func (w *workload) at(i int) (*doc, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for len(w.seq) <= i {
		d, err := w.more()
		if err != nil {
			return nil, err
		}
		w.seq = append(w.seq, d)
	}
	return w.seq[i], nil
}

// prefix returns the sequence's first n documents.
func (w *workload) prefix(n int) ([]*doc, error) {
	var out []*doc
	for i := 0; i < n; i++ {
		d, err := w.at(i)
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	return out, nil
}

// newDoc resolves a request document against the plan the server will
// build, so responses can be checked against it.
func newDoc(route string, req serve.Request, pool int) (*doc, error) {
	body, err := json.Marshal(&req)
	if err != nil {
		return nil, err
	}
	cfg := machine.ScaledOrigin()
	var app apps.App
	if req.Program != nil {
		app = req.Program.App()
	} else if app, err = apps.ByName(req.App); err != nil {
		return nil, err
	}
	plan, err := campaign.NewPlan(app, cfg, req.Procs, req.S0)
	if err != nil {
		return nil, err
	}
	return &doc{
		Route: route, Body: body, Req: req, Ident: req.Ident(),
		S0: plan.S0, ProcCounts: plan.ProcCounts, Pool: pool,
	}, nil
}

// userSpecs are the user ProgramSpec documents of the warm pool: a stencil sweep with halo sharing, and an irregular gather with a
// critical section and a serial reduction.
func userSpecs() []*admission.ProgramSpec {
	return []*admission.ProgramSpec{
		{
			Name:   "stencil",
			Arrays: []admission.ArraySpec{{Name: "u", Elems: 16384}, {Name: "v", Elems: 16384}},
			Regions: []admission.RegionSpec{
				{Name: "sweep", Ops: []admission.OpSpec{
					{Kind: "read", Array: "u", InstrPer: 4, HaloElems: 8},
					{Kind: "write", Array: "v", InstrPer: 2},
				}},
				{Name: "relax", Ops: []admission.OpSpec{
					{Kind: "read", Array: "v", InstrPer: 3},
					{Kind: "write", Array: "u", InstrPer: 1},
					{Kind: "compute", Instr: 2000},
				}},
			},
		},
		{
			Name:   "gather",
			Arrays: []admission.ArraySpec{{Name: "idx", Elems: 24576}, {Name: "val", Elems: 8192}},
			Regions: []admission.RegionSpec{
				{Name: "scan", Ops: []admission.OpSpec{
					{Kind: "read", Array: "idx", InstrPer: 2},
					{Kind: "gather", Array: "val", GatherEvery: 16, InstrPer: 3},
				}},
				{Name: "update", Ops: []admission.OpSpec{
					{Kind: "write", Array: "val", InstrPer: 2},
					{Kind: "critical", Instr: 400},
				}},
				{Name: "reduce", Serial: true, Ops: []admission.OpSpec{
					{Kind: "read", Array: "val", InstrPer: 1},
				}},
			},
		},
	}
}

// stratified returns n items drawn block by block: each block is a seeded
// shuffle of pattern, so every block holds pattern's exact mix and seeds
// vary the order, not the proportions.
func stratified[T any](rng *rand.Rand, n int, pattern []T) []T {
	out := make([]T, 0, n+len(pattern))
	for len(out) < n {
		block := append([]T(nil), pattern...)
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		out = append(out, block...)
	}
	return out[:n]
}

// coldRoutes is analyze_cold's route mix: 7 in 10 documents go to
// /v1/analyze and 3 to /v1/diagnose, so the diagnosis layer runs on a
// workload whose responses can never come from its response cache.
var coldRoutes = []string{
	routeAnalyze, routeAnalyze, routeAnalyze, routeAnalyze, routeAnalyze,
	routeAnalyze, routeAnalyze, routeDiagnose, routeDiagnose, routeDiagnose,
}

// stratum is an s0 interval whose every value builds the same program
// (or, for an app with more than maxStrata grids, a run of adjacent
// grids).
type stratum struct{ lo, hi uint64 }

// appStrata samples the app's s0 range and returns its strata in
// ascending order.
func appStrata(app apps.App, cfg machine.Config, lo, hi float64) ([]stratum, error) {
	type grid struct {
		built  uint64
		lo, hi uint64
	}
	var grids []grid
	for i := 0; i < gridSamples; i++ {
		s0 := uint64(lo + (hi-lo)*float64(i)/float64(gridSamples-1))
		prog, err := app.Build(cfg, 1, s0)
		if err != nil {
			return nil, err
		}
		if n := len(grids); n > 0 && grids[n-1].built == prog.DataBytes {
			grids[n-1].hi = s0
			continue
		}
		grids = append(grids, grid{built: prog.DataBytes, lo: s0, hi: s0})
	}
	k := min(len(grids), maxStrata)
	out := make([]stratum, k)
	for j := range out {
		first, last := grids[j*len(grids)/k], grids[(j+1)*len(grids)/k-1]
		out[j] = stratum{first.lo, last.hi}
	}
	return out, nil
}

// coldGen draws analyze_cold documents: the four apps in rotation, each
// app cycling through its strata in ascending order from a seeded start
// and alternating procs 8 and 16 in seeded order, s0 uniform within the
// stratum, routes mixed as coldRoutes. It proves that no (app, procs,
// s0) — and so no document — repeats.
type coldGen struct {
	rng    *rand.Rand
	n      int
	strata map[string][]stratum
	next   map[string]int
	procs  map[string][]int
	routes []string
	seen   map[string]bool
}

func newColdGen(rng *rand.Rand) (*coldGen, error) {
	g := &coldGen{rng: rng, strata: map[string][]stratum{}, next: map[string]int{},
		procs: map[string][]int{}, seen: map[string]bool{}}
	cfg := machine.ScaledOrigin()
	for _, name := range coldApps {
		app, err := apps.ByName(name)
		if err != nil {
			return nil, err
		}
		def := float64(app.DefaultBytes(cfg))
		st, err := appStrata(app, cfg, 0.8*def, s0High[name]*def)
		if err != nil {
			return nil, err
		}
		g.strata[name] = st
		g.next[name] = rng.Intn(len(st))
	}
	return g, nil
}

func (g *coldGen) more() (*doc, error) {
	name := coldApps[g.n%len(coldApps)]
	g.n++
	if len(g.procs[name]) == 0 {
		g.procs[name] = stratified(g.rng, 2, []int{8, 16})
	}
	procs := g.procs[name][0]
	g.procs[name] = g.procs[name][1:]
	if len(g.routes) == 0 {
		g.routes = stratified(g.rng, 10, coldRoutes)
	}
	route := g.routes[0]
	g.routes = g.routes[1:]
	st := g.strata[name]
	s := st[g.next[name]]
	g.next[name] = (g.next[name] + 1) % len(st)
	for tries := 0; tries < 1000; tries++ {
		s0 := s.lo + uint64(g.rng.Int63n(int64(s.hi-s.lo+1)))
		id := fmt.Sprintf("%s/%d/%d", name, procs, s0)
		if g.seen[id] {
			continue
		}
		g.seen[id] = true
		return newDoc(route, serve.Request{App: name, Procs: procs, S0: s0}, -1)
	}
	return nil, fmt.Errorf("cold generator: no unused (app, procs, s0) for %s", name)
}

// buildWorkload generates a named workload's pool and sequence from seed.
func buildWorkload(name string, seed int64) (*workload, error) {
	w, err := generate(name, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	w.Seed = seed
	return w, nil
}

func generate(name string, rng *rand.Rand) (*workload, error) {
	switch name {
	case wlCold:
		w := &workload{Name: name, CacheBytes: coldCacheBytes, Kernels: []int{8, 16}}
		g, err := newColdGen(rng)
		if err != nil {
			return nil, err
		}
		w.more = g.more
		return w, nil

	case wlWarm:
		w := &workload{Name: name}
		for _, a := range coldApps {
			for _, p := range []int{4, 8, 16, 32} {
				d, err := newDoc(routeAnalyze, serve.Request{App: a, Procs: p}, len(w.Pool))
				if err != nil {
					return nil, err
				}
				w.Pool = append(w.Pool, d)
			}
		}
		// The specs at three processor counts make 19 documents: with
		// an odd count, the median request falls in the middle of one
		// document's latencies, not on the edge between the cheaper
		// and the dearer half of the pool.
		specs := userSpecs()
		for _, u := range []struct {
			spec  *admission.ProgramSpec
			procs int
		}{{specs[0], 8}, {specs[1], 16}, {specs[0], 32}} {
			d, err := newDoc(routeAnalyze, serve.Request{Program: u.spec, Procs: u.procs}, len(w.Pool))
			if err != nil {
				return nil, err
			}
			w.Pool = append(w.Pool, d)
		}
		// Uniform over the pool: consecutive blocks are seeded
		// permutations of it.
		var block []*doc
		w.more = func() (*doc, error) {
			if len(block) == 0 {
				block = stratified(rng, len(w.Pool), w.Pool)
			}
			d := block[0]
			block = block[1:]
			return d, nil
		}
		return w, nil

	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}
