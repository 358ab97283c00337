package campaign_test

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"scaltool/internal/apps"
	"scaltool/internal/campaign"
	"scaltool/internal/diagnose"
	"scaltool/internal/faultinject"
	"scaltool/internal/machine"
	"scaltool/internal/model"
	"scaltool/internal/runcache"
)

// TestResumedCampaignDiagnosesAndFitsSegments crashes a campaign at a spill
// write, reruns it against the same directory, and requires the resumed
// Result to feed everything an uninterrupted one feeds: the region-graph
// diagnosis (identical report) and a per-segment model fit. Both need the
// simulator's per-region ground truth, which the spill tier stores with
// every run.
func TestResumedCampaignDiagnosesAndFitsSegments(t *testing.T) {
	if testing.Short() {
		t.Skip("three campaigns")
	}
	cfg := machine.ScaledOrigin()
	app, err := apps.ByName("swim")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := campaign.NewPlan(app, cfg, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	run := func(spec faultinject.Spec, dir string) (*campaign.Result, error) {
		in := faultinject.New(spec)
		rn := &campaign.Runner{Cfg: cfg, Inject: in,
			Cache: runcache.New(runcache.Options{SpillDir: dir, Inject: in})}
		return rn.Execute(context.Background(), app, plan)
	}
	diagnosis := func(res *campaign.Result) *diagnose.Report {
		t.Helper()
		prog, err := app.Build(cfg, plan.ProcCounts[len(plan.ProcCounts)-1], plan.S0)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := diagnose.Campaign(context.Background(), res, prog)
		if err != nil {
			t.Fatalf("diagnose: %v", err)
		}
		return rep
	}

	ref, err := run(faultinject.Spec{}, t.TempDir())
	if err != nil {
		t.Fatalf("uninterrupted campaign: %v", err)
	}
	dir := t.TempDir()
	if _, err := run(faultinject.Spec{CrashAppend: 3}, dir); !errors.Is(err, faultinject.ErrCrash) {
		t.Fatalf("crashed campaign: err = %v, want an injected crash", err)
	}
	resumed, err := run(faultinject.Spec{}, dir)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}

	if want, got := diagnosis(ref), diagnosis(resumed); !reflect.DeepEqual(want, got) {
		t.Fatalf("resumed diagnosis differs from the uninterrupted one:\nref: %+v\ngot: %+v", want, got)
	}
	opts := model.DefaultOptions(cfg.L2.SizeBytes)
	want, err := ref.FitSegment("calc1", opts)
	if err != nil {
		t.Fatalf("uninterrupted segment fit: %v", err)
	}
	got, err := resumed.FitSegment("calc1", opts)
	if err != nil {
		t.Fatalf("resumed segment fit: %v", err)
	}
	if !reflect.DeepEqual(want.Breakdown(), got.Breakdown()) {
		t.Fatal("resumed segment breakdown differs from the uninterrupted one")
	}
}
