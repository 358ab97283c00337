package admission

import (
	"math"
	"net/http"

	"scaltool/internal/apps"
	"scaltool/internal/campaign"
	"scaltool/internal/machine"
	"scaltool/internal/price"
	"scaltool/internal/recipe"
)

// Cost estimation. The admission decision needs the cost of a campaign
// *before* the campaign exists, from quantities a hostile client controls:
// regions × processors × dataset fraction. Two estimators provide it:
//
//   - price.Program walks a built sim.Program and prices its ops; the
//     recipe memo keeps that price per run, so a run is walked once.
//   - A RunEstimator (user program specs) prices a run in closed form from
//     the spec's counts, without building anything — building is exactly the
//     step whose allocations must be bounded first.
//
// Both charge the same pessimistic unit prices (internal/price: worst-case
// accesses, barrier hot-spot serialization), so built-in and user-submitted
// programs are budgeted on the same scale. These are upper bounds, not
// predictions: the point is that no admitted request can cost more than
// estimated, and budgets are calibrated against the same estimator so the
// slack cancels.

// RunEstimator is implemented by applications that can price a run in
// closed form. EstimatePlan uses it instead of building the program — the
// only safe option for user-submitted specs, whose build-time allocations
// are the thing being gated.
type RunEstimator interface {
	EstimateRun(cfg machine.Config, procs int, dataBytes uint64) Cost
}

// EstimatePlan prices the full campaign a plan implies — base runs at every
// processor count, uniprocessor runs at every fractional size, the
// synchronization and spin kernels — against budget b.
//
// Safety ordering matters here: a run's dataset size is checked against the
// request byte budget *before* its program is built, because builders
// allocate address lists proportional to the dataset (a build can be the
// attack). Applications implementing RunEstimator are priced in closed form
// and never built. workers is the simulation concurrency the server will
// use; transient build/run footprints are charged for that many concurrent
// runs, retained timelines for all of them.
func (b Budget) EstimatePlan(cfg machine.Config, app apps.App, plan campaign.Plan, workers int) (Cost, *Rejection) {
	return b.EstimatePlanMemo(nil, cfg, app, plan, workers)
}

// EstimatePlanMemo is EstimatePlan with each application run's price taken
// from memo: a run is built only on a memo miss, so pricing a request seen
// before builds nothing. A nil memo builds every run, as EstimatePlan does.
//
// The serving pipeline calls it through a route's price field, a function
// value the call graph does not follow, so it is marked hot itself.
//
//scalvet:hot
func (b Budget) EstimatePlanMemo(memo *recipe.Memo, cfg machine.Config, app apps.App, plan campaign.Plan, workers int) (Cost, *Rejection) {
	b = b.withDefaults()
	if workers < 1 {
		workers = 1
	}

	runs := make([]recipe.Recipe, 0, len(plan.ProcCounts)+len(plan.UniSizes))
	for _, n := range plan.ProcCounts {
		runs = append(runs, recipe.Recipe{Cfg: cfg, App: app, Kind: recipe.Base, Procs: n, Size: plan.S0})
	}
	for _, s := range plan.UniSizes {
		runs = append(runs, recipe.Recipe{Cfg: cfg, App: app, Kind: recipe.Uni, Procs: 1, Size: s})
	}

	est, _ := app.(RunEstimator)
	var (
		cycles        float64
		maxTransient  int64
		retained      int64
		nRuns         int
		largestBuild  uint64
		rejectedBuild *Rejection
	)
	add := func(c Cost) {
		cycles += c.Cycles
		retained += c.TimelineBytes
		if tr := c.AllocBytes - c.TimelineBytes; tr > maxTransient {
			maxTransient = tr
		}
		nRuns += c.Runs
	}
	for _, r := range runs {
		// Pre-build gate: the build's own allocations are O(size) (address
		// lists, partition tables), so a size over the byte budget must be
		// refused before Build runs, not after.
		if r.Size > largestBuild {
			largestBuild = r.Size
		}
		if int64(r.Size) > b.MaxRequestBytes {
			rejectedBuild = Reject(http.StatusRequestEntityTooLarge, "cost_bytes",
				"campaign data-set size %d bytes exceeds the per-request byte budget of %d (building it would, before simulating anything)",
				r.Size, b.MaxRequestBytes) //scalvet:ignore rejection early-exit: fires at most once, then breaks
			break
		}
		if est != nil {
			add(est.EstimateRun(cfg, r.Procs, r.Size))
			continue
		}
		c, err := memo.Cost(r, recipe.Admission)
		if err != nil {
			// The campaign skips sizes the application's grid cannot realize;
			// so does the estimate. A base-run build error surfaces later as
			// the request's own semantic failure.
			continue
		}
		add(c)
	}
	if rejectedBuild != nil {
		return Cost{}, rejectedBuild
	}

	// Estimation kernels: a barrier-loop kernel per processor count and one
	// spin kernel. Their footprints are tiny and fixed; price them as pure
	// barrier/spin work so the totals stay honest.
	for _, n := range plan.ProcCounts {
		kc := float64(apps.SyncKernelBarriers) * price.Barrier(cfg, n)
		cycles += kc
		retained += int64(n)*price.PhaseBytes + int64(n)*price.ProcStateBytes
		nRuns++
	}
	nmax := plan.ProcCounts[len(plan.ProcCounts)-1]
	cycles += apps.SpinKernelPhases * price.Barrier(cfg, nmax) * 4 // spin kernel: barriers + spin-wait padding
	retained += int64(nmax) * (price.PhaseBytes + price.ProcStateBytes)
	nRuns++

	conc := workers
	if conc > nRuns {
		conc = nRuns
	}
	c := Cost{
		Cycles:        cycles,
		AllocBytes:    maxTransient*int64(conc) + retained,
		TimelineBytes: retained,
		Runs:          nRuns,
	}
	if math.IsNaN(c.Cycles) || math.IsInf(c.Cycles, 0) {
		return Cost{}, Reject(http.StatusUnprocessableEntity, "cost_overflow",
			"request cost overflows the estimator")
	}
	return c, nil
}

// EstimateDiagnose prices a diagnosis request: the underlying campaign
// plus the diagnosis overlay. The overlay's retained state — per-region ×
// per-processor curves, the structure graph, the encoded report — is
// bounded by one more copy of the campaign's retained timeline records,
// so it is charged exactly that.
func (b Budget) EstimateDiagnose(cfg machine.Config, app apps.App, plan campaign.Plan, workers int) (Cost, *Rejection) {
	return b.EstimateDiagnoseMemo(nil, cfg, app, plan, workers)
}

// EstimateDiagnoseMemo is EstimateDiagnose with run prices from memo, as
// EstimatePlanMemo.
//
// The serving pipeline calls it through a route's price field, a function
// value the call graph does not follow, so it is marked hot itself.
//
//scalvet:hot
func (b Budget) EstimateDiagnoseMemo(memo *recipe.Memo, cfg machine.Config, app apps.App, plan campaign.Plan, workers int) (Cost, *Rejection) {
	c, rej := b.EstimatePlanMemo(memo, cfg, app, plan, workers)
	if rej != nil {
		return Cost{}, rej
	}
	c.AllocBytes += c.TimelineBytes
	return c, nil
}
