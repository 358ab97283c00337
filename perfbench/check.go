package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"

	"scaltool/internal/diagnose"
	"scaltool/internal/serve"
)

// checkBody verifies one response against its document: a 200 whose body
// decodes as the route's response type, names the document's workload,
// size and processor sweep, and — for a diagnosis — passes the report's own
// self-verification. A document from a warmed pool must also return exactly
// the bytes setup recorded for it (want non-nil).
func checkBody(d *doc, status int, body, want []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", status, body)
	}
	if want != nil && !bytes.Equal(body, want) {
		return fmt.Errorf("body differs from the one setup recorded for this document")
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	switch d.Route {
	case routeAnalyze:
		var r serve.Response
		if err := dec.Decode(&r); err != nil {
			return fmt.Errorf("decoding serve.Response: %v", err)
		}
		return checkAnalyze(d, &r)
	case routeDiagnose:
		var r diagnose.Report
		if err := dec.Decode(&r); err != nil {
			return fmt.Errorf("decoding diagnose.Report: %v", err)
		}
		return checkDiagnose(d, &r)
	}
	return fmt.Errorf("unknown route %q", d.Route)
}

func checkAnalyze(d *doc, r *serve.Response) error {
	if r.App != d.Ident || r.Machine != "scaled" || r.Procs != d.Req.Procs || r.S0 != d.S0 {
		return fmt.Errorf("response names %s/%s procs %d s0 %d; want %s/scaled procs %d s0 %d",
			r.App, r.Machine, r.Procs, r.S0, d.Ident, d.Req.Procs, d.S0)
	}
	if len(r.Speedups) != len(d.ProcCounts) || len(r.Breakdown) != len(d.ProcCounts) {
		return fmt.Errorf("%d speedup and %d breakdown rows for a %d-point plan",
			len(r.Speedups), len(r.Breakdown), len(d.ProcCounts))
	}
	for i, n := range d.ProcCounts {
		sp, bd := r.Speedups[i], r.Breakdown[i]
		if sp.Procs != n || bd.Procs != n {
			return fmt.Errorf("row %d covers procs %d/%d; want %d", i, sp.Procs, bd.Procs, n)
		}
		for _, v := range []float64{sp.Wall, sp.Speedup, bd.Base, bd.L2Lim, bd.Sync, bd.Imb, bd.MP} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("row %d (procs %d) holds %v", i, n, v)
			}
		}
		if sp.Wall <= 0 || sp.Speedup <= 0 || bd.Base <= 0 {
			return fmt.Errorf("row %d (procs %d) has wall %v, speedup %v, base %v", i, n, sp.Wall, sp.Speedup, bd.Base)
		}
	}
	if r.Model.FitSizes < 1 || r.Model.CPI0 <= 0 {
		return fmt.Errorf("model fit used %d sizes, cpi0 %v", r.Model.FitSizes, r.Model.CPI0)
	}
	return nil
}

func checkDiagnose(d *doc, r *diagnose.Report) error {
	if r.App != d.Ident || r.Machine != "scaled" || r.S0 != d.S0 {
		return fmt.Errorf("report names %s/%s s0 %d; want %s/scaled s0 %d", r.App, r.Machine, r.S0, d.Ident, d.S0)
	}
	if len(r.Procs) != len(d.ProcCounts) {
		return fmt.Errorf("report covers procs %v; want %v", r.Procs, d.ProcCounts)
	}
	for i, n := range d.ProcCounts {
		if r.Procs[i] != n {
			return fmt.Errorf("report covers procs %v; want %v", r.Procs, d.ProcCounts)
		}
	}
	if err := r.Verify(); err != nil {
		return fmt.Errorf("report failed Verify: %v", err)
	}
	return nil
}
