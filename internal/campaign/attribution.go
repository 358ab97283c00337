package campaign

import (
	"errors"
	"fmt"
	"sort"

	"scaltool/internal/sim"
)

// ErrNoAttribution reports a base run that carries no simulator ground
// truth: a Result assembled from counters alone rather than by Execute,
// whose runs (simulated or reloaded from the run cache) always carry it.
var ErrNoAttribution = errors.New("campaign: base run carries no region attribution")

// AttributionRun is one base run's contribution to the cross-processor
// diagnosis family (internal/diagnose): the run's identity — its RunID,
// which is also its timeline lane label "sim <id>" — plus wall cycles and
// the per-region ground-truth attribution aggregated by region name.
type AttributionRun struct {
	ID         string
	Procs      int
	WallCycles float64

	// Regions is the run's attribution merged by region name in
	// first-appearance order, per-processor split included
	// (sim.Result.AggregateRegions).
	Regions []sim.RegionAttribution
}

// AttributionFamily collects the diagnosis overlay family from a finished
// campaign: one AttributionRun per base-run processor count, ascending.
// All base runs share the plan's s0 data-set size, so the family isolates
// the processor count as the only variable — exactly the axis the
// scaling-loss backtracking differentiates along.
func (r *Result) AttributionFamily() ([]AttributionRun, error) {
	procs := make([]int, 0, len(r.BaseRuns))
	for n := range r.BaseRuns {
		procs = append(procs, n)
	}
	sort.Ints(procs)
	out := make([]AttributionRun, 0, len(procs))
	for _, n := range procs {
		res := r.BaseRuns[n]
		id := RunID("base", n, r.Plan.S0)
		if res == nil || len(res.Ground.Regions) == 0 {
			return nil, fmt.Errorf("%w: %s", ErrNoAttribution, id)
		}
		out = append(out, AttributionRun{
			ID:         id,
			Procs:      n,
			WallCycles: res.WallCycles,
			Regions:    res.AggregateRegions(),
		})
	}
	return out, nil
}
