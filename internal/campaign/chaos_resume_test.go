package campaign

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"scaltool/internal/apps"
	"scaltool/internal/faultinject"
	"scaltool/internal/model"
	"scaltool/internal/obs"
	"scaltool/internal/runcache"
)

// These are the kill-resume chaos drills: a campaign whose run cache spills
// to a directory is killed at EVERY spill write — a clean crash before the
// write, a torn write that leaves half a temp file, a failed fsync — and
// resumed by running the same campaign again against the same directory.
// The resume must reproduce the uninterrupted campaign's breakdown exactly,
// and every entry the corpse published must come back as a disk hit, never
// a re-simulation. The sweep discovers the campaign's total spill writes by
// itself: it keeps moving the crash point until a campaign outruns it.

// resumePlan is the sweep's campaign: small enough that a full crash-point
// sweep stays fast, big enough to have critical runs, kernels, and skips.
func resumePlan(t *testing.T) (apps.App, Plan) {
	t.Helper()
	app, err := apps.ByName("swim")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewPlan(app, cfg(), 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	return app, plan
}

// resumeRunner builds the sweep's runner: seeded counter noise everywhere,
// so a resumed run must come back with the exact perturbed bytes, and a run
// cache spilling to dir whose spill writes the spec's durability fault
// targets.
func resumeRunner(spec faultinject.Spec, dir string) *Runner {
	in := faultinject.New(spec)
	return &Runner{
		Cfg: cfg(), Inject: in, MaxRetries: 2,
		Cache: runcache.New(runcache.Options{SpillDir: dir, Inject: in}),
	}
}

func baseResumeSpec() faultinject.Spec {
	return faultinject.Spec{Seed: 42, Noise: 0.02}
}

func fitBreakdown(t *testing.T, res *Result) []model.BreakdownPoint {
	t.Helper()
	m, err := res.Fit(model.DefaultOptions(cfg().L2.SizeBytes))
	if err != nil {
		t.Fatalf("fit: %v", err)
	}
	return m.Breakdown()
}

// spillFiles counts the published entries (and leftover temp files) in a
// spill directory.
func spillFiles(t *testing.T, dir string) (entries, temps int) {
	t.Helper()
	e, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	tmp, err := filepath.Glob(filepath.Join(dir, "spill-*.tmp"))
	if err != nil {
		t.Fatal(err)
	}
	return len(e), len(tmp)
}

// observed returns a context carrying a fresh metrics registry.
func observed() (context.Context, *obs.Metrics) {
	mt := obs.NewMetrics()
	return obs.NewContext(context.Background(), &obs.Observer{Metrics: mt}), mt
}

// reference runs the campaign uninterrupted as a plain Execute (no cache),
// checks a spilling campaign agrees with it, and returns the breakdown plus
// the number of spill writes the spilling campaign made — one per
// simulated run, all of them published.
func reference(t *testing.T, app apps.App, plan Plan) ([]model.BreakdownPoint, int) {
	t.Helper()
	rn := &Runner{Cfg: cfg(), Inject: faultinject.New(baseResumeSpec()), MaxRetries: 2}
	plain, err := rn.Execute(context.Background(), app, plan)
	if err != nil {
		t.Fatalf("plain campaign: %v", err)
	}
	ref := fitBreakdown(t, plain)

	dir := t.TempDir()
	ctx, mt := observed()
	spilled, err := resumeRunner(baseResumeSpec(), dir).Execute(ctx, app, plan)
	if err != nil {
		t.Fatalf("uninterrupted spilling campaign: %v", err)
	}
	if !reflect.DeepEqual(ref, fitBreakdown(t, spilled)) {
		t.Fatal("spilling campaign's breakdown differs from plain Execute's")
	}
	writes, temps := spillFiles(t, dir)
	if misses := mt.Counter("scaltool_runcache_misses_total", "").Value(); writes == 0 || uint64(writes) != misses || temps != 0 {
		t.Fatalf("uninterrupted campaign published %d entries (%d temp files) for %d simulations", writes, temps, misses)
	}
	return ref, writes
}

// resumeAndCheck reruns the campaign with no fault against a crashed
// campaign's spill directory and requires the reference breakdown, with
// every published entry served from disk and only the rest simulated.
func resumeAndCheck(t *testing.T, app apps.App, plan Plan, dir string, ref []model.BreakdownPoint, writes int, what string) *Result {
	t.Helper()
	published, _ := spillFiles(t, dir)
	ctx, mt := observed()
	res, err := resumeRunner(baseResumeSpec(), dir).Execute(ctx, app, plan)
	if err != nil {
		t.Fatalf("%s: resume: %v", what, err)
	}
	if got := fitBreakdown(t, res); !reflect.DeepEqual(ref, got) {
		t.Fatalf("%s: resumed breakdown differs from the uninterrupted campaign's\nref: %+v\ngot: %+v", what, ref, got)
	}
	disk := mt.Counter("scaltool_runcache_hits_total", "", "tier", "disk").Value()
	misses := mt.Counter("scaltool_runcache_misses_total", "").Value()
	if disk != uint64(published) || misses != uint64(writes-published) {
		t.Fatalf("%s: %d published entries came back as %d disk hits and %d simulations (want %d)",
			what, published, disk, misses, writes-published)
	}
	if n, _ := spillFiles(t, dir); n != writes {
		t.Fatalf("%s: resumed directory holds %d entries, want %d", what, n, writes)
	}
	return res
}

// sweepResume kills a campaign at spill write n = 1, 2, 3, … with the given
// fault kind, resumes each corpse, and requires the resumed breakdown to
// equal the uninterrupted one exactly. The sweep ends at the first n the
// campaign outruns, which must be one past the reference's spill writes.
func sweepResume(t *testing.T, kind faultinject.Kind) {
	if testing.Short() {
		t.Skip("two campaigns per spill write")
	}
	app, plan := resumePlan(t)
	ref, writes := reference(t, app, plan)

	crashed := 0
	for n := uint64(1); ; n++ {
		if n > 500 {
			t.Fatalf("crash sweep did not terminate after %d points", n-1)
		}
		spec := baseResumeSpec()
		wantTemps := 0
		switch kind {
		case faultinject.KindCrash:
			spec.CrashAppend = n
		case faultinject.KindTorn:
			spec.TornAppend = n
			wantTemps = 1 // the half-written frame, never renamed
		case faultinject.KindFsync:
			spec.FsyncFail = n
		default:
			t.Fatalf("unknown sweep kind %q", kind)
		}
		dir := t.TempDir()
		_, err := resumeRunner(spec, dir).Execute(context.Background(), app, plan)
		if err == nil {
			// The fault point lies beyond the campaign's spill writes: the
			// sweep covered every one of them.
			if crashed != writes {
				t.Fatalf("swept %d %s points, but the campaign makes %d spill writes", crashed, kind, writes)
			}
			t.Logf("swept %d %s points", crashed, kind)
			return
		}
		if !errors.Is(err, faultinject.ErrCrash) || !strings.Contains(err.Error(), "injected") {
			t.Fatalf("%s point %d: campaign died of the wrong cause: %v", kind, n, err)
		}
		crashed++
		if _, temps := spillFiles(t, dir); temps != wantTemps {
			t.Fatalf("%s point %d: %d temp files left behind, want %d", kind, n, temps, wantTemps)
		}
		resumeAndCheck(t, app, plan, dir, ref, writes, fmt.Sprintf("%s point %d", kind, n))
	}
}

// TestChaosCrashResumeInvariant kills the campaign cleanly before every
// spill write in turn and requires byte-identical resume.
func TestChaosCrashResumeInvariant(t *testing.T) { sweepResume(t, faultinject.KindCrash) }

// TestChaosTornWriteResumeInvariant tears every spill write in turn — half
// the frame reaches a temp file that is never renamed — and requires the
// resume to ignore the fragment and reproduce the reference.
func TestChaosTornWriteResumeInvariant(t *testing.T) { sweepResume(t, faultinject.KindTorn) }

// TestChaosFsyncFailResumeInvariant fails every spill write's fsync in
// turn: the entry is never published, and the resume re-simulates it.
func TestChaosFsyncFailResumeInvariant(t *testing.T) { sweepResume(t, faultinject.KindFsync) }

// TestChaosResumeAfterCancel interrupts a campaign with context
// cancellation — the graceful-shutdown path — while a run hangs mid-plan,
// after every earlier run has been published. Rerunning the campaign
// against the same directory must serve those runs from disk, simulate the
// rest, and reproduce the reference breakdown with no failure recorded.
func TestChaosResumeAfterCancel(t *testing.T) {
	if testing.Short() {
		t.Skip("three campaigns")
	}
	app, plan := resumePlan(t)
	ref, writes := reference(t, app, plan)

	// One worker runs the plan in order: base_p01, ksync_p01, base_p02,
	// ksync_p02, then base_p04 hangs until the context is canceled.
	spec := baseResumeSpec()
	spec.StallRuns = []string{RunID("base", 4, plan.S0)}
	dir := t.TempDir()
	rn := resumeRunner(spec, dir)
	rn.Workers = 1
	rn.RunTimeout = time.Minute

	ctx, mt := observed()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var stalled atomic.Bool
	go func() {
		started := mt.Counter("scaltool_campaign_runs_started_total", "")
		for started.Value() < 5 && ctx.Err() == nil {
			time.Sleep(time.Millisecond)
		}
		stalled.Store(true)
		cancel()
	}()
	_, err := rn.Execute(ctx, app, plan)
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled campaign: err = %v, want cancellation", err)
	}
	if !stalled.Load() {
		t.Fatal("campaign returned before the stalled run started")
	}
	if published, _ := spillFiles(t, dir); published != 4 {
		t.Fatalf("%d entries published before the stall, want 4", published)
	}

	resumed := resumeAndCheck(t, app, plan, dir, ref, writes, "after cancel")
	if len(resumed.Health.Failed) != 0 || len(resumed.Health.Retries) != 0 {
		t.Fatalf("resume recorded failures %+v / retries %+v", resumed.Health.Failed, resumed.Health.Retries)
	}
}

// TestResumeHealthIdentity shows the kill-resume identity needs no retry or
// health history on disk: every injector decision is a pure function of
// (spec, run, attempt) and is made before the cache lookup, so a campaign
// crashed mid-way and rerun against its spill directory re-derives the
// uninterrupted campaign's finalized health report exactly — retries,
// findings, quarantines, permanent failures — and its skipped sizes.
func TestResumeHealthIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("three campaigns")
	}
	app, plan := resumePlan(t)
	spec := faultinject.Spec{
		Seed: 3, Noise: 0.02, Transient: 0.3, MaxFailures: 2,
		FailRuns:   []string{RunID("base", 2, plan.S0)},
		PoisonRuns: []string{RunID("ksync", 2, 0)},
		SkewRuns:   []string{RunID("base", 4, plan.S0)},
	}
	run := func(spec faultinject.Spec, dir string) (*Result, error) {
		rn := resumeRunner(spec, dir)
		rn.MaxRetries = 1
		return rn.Execute(context.Background(), app, plan)
	}
	ref, err := run(spec, t.TempDir())
	if err != nil {
		t.Fatalf("uninterrupted campaign: %v", err)
	}
	h := ref.Health
	if len(h.Retries) == 0 || len(h.Failed) == 0 || len(h.Quarantined) == 0 || len(h.Findings) == 0 {
		t.Fatalf("spec exercises too little: retries %d, failed %d, quarantined %d, findings %d",
			len(h.Retries), len(h.Failed), len(h.Quarantined), len(h.Findings))
	}

	dir := t.TempDir()
	crash := spec
	crash.CrashAppend = 4
	if _, err := run(crash, dir); !errors.Is(err, faultinject.ErrCrash) {
		t.Fatalf("crashed campaign: err = %v, want an injected crash", err)
	}
	resumed, err := run(spec, dir)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if !reflect.DeepEqual(ref.Health, resumed.Health) {
		t.Fatalf("resumed health report differs:\nref: %s\ngot: %s", ref.Health.Summary(), resumed.Health.Summary())
	}
	if !reflect.DeepEqual(ref.Skipped, resumed.Skipped) {
		t.Fatalf("resumed skipped sizes %v, want %v", resumed.Skipped, ref.Skipped)
	}
}
