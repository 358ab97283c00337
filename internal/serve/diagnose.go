package serve

import (
	"context"
	"fmt"

	"scaltool/internal/campaign"
	"scaltool/internal/diagnose"
	"scaltool/internal/recipe"
)

// POST /v1/diagnose: the root-cause endpoint. It takes the same request
// document as /v1/analyze (raw_tm is ignored — diagnosis reads the
// simulator's ground truth, not the fitted model) through the same
// pipeline, runs the campaign's base-run sweep through the shared run
// cache, overlays the per-region attribution on the program structure
// graph, and returns the ranked culprit report (diagnose.Report).
// Identical requests get byte-identical bodies, served from a bounded
// response cache keyed by the normalized document — a hit costs no
// admission slot, no simulation and no program build.

// renderDiagnosis diagnoses a finished campaign against the structure graph
// of its largest run's program and renders the self-verified report. It is
// called through route.render, a function value the call graph does not
// follow, so it is marked hot itself.
//
//scalvet:hot
func (s *Server) renderDiagnosis(ctx context.Context, req *Request, rv *resolved, res *campaign.Result) (any, error) {
	nmax := rv.plan.ProcCounts[len(rv.plan.ProcCounts)-1]
	prog, err := s.recipes.Build(recipe.Recipe{Cfg: rv.cfg, App: rv.app, Kind: recipe.Base, Procs: nmax, Size: rv.plan.S0}, recipe.Diagnose)
	if err != nil {
		return nil, fmt.Errorf("building structure graph: %w", err)
	}
	rep, err := diagnose.Campaign(ctx, res, prog)
	if err != nil {
		return nil, err
	}
	// Name the workload as the request named it (a user program diagnoses
	// as "user:<name>", matching /v1/analyze responses).
	rep.App = req.Ident()
	rep.Machine = req.Machine
	return rep, nil
}
