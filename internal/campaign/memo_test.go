package campaign_test

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"testing"

	"scaltool/internal/admission"
	"scaltool/internal/apps"
	"scaltool/internal/campaign"
	"scaltool/internal/machine"
	"scaltool/internal/obs"
	"scaltool/internal/recipe"
	"scaltool/internal/runcache"
	"scaltool/internal/sim"
)

// resultBytes encodes every run of a campaign Result, in a fixed order,
// plus its skip list — what a memo-served campaign must reproduce.
func resultBytes(t *testing.T, res *campaign.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	put := func(label string, r *sim.Result) {
		fmt.Fprintf(&buf, "%s\n", label)
		if err := sim.EncodeResult(&buf, r); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range sortedKeys(res.BaseRuns) {
		put(fmt.Sprintf("base %d", n), res.BaseRuns[n])
	}
	for _, s := range sortedKeys(res.UniRuns) {
		put(fmt.Sprintf("uni %d", s), res.UniRuns[s])
	}
	for _, n := range sortedKeys(res.SyncKernels) {
		put(fmt.Sprintf("sync %d", n), res.SyncKernels[n])
	}
	put("spin", res.SpinKernel)
	fmt.Fprintf(&buf, "skipped %v\n", res.Skipped)
	return buf.Bytes()
}

func sortedKeys[K int | uint64, V any](m map[K]V) []K {
	ks := make([]K, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	return ks
}

// execute runs one campaign and returns its encoded result.
func execute(t *testing.T, rn *campaign.Runner, app apps.App, plan campaign.Plan) []byte {
	t.Helper()
	res, err := rn.Run(app, plan)
	if err != nil {
		t.Fatalf("%s: %v", app.Name(), err)
	}
	return resultBytes(t, res)
}

// TestMemoCampaignsMatchMemoless: campaigns sharing one memo and run cache
// — the registered swim, a custom-Params swim, and two user programs with
// the same name but different bodies — each produce exactly the results of
// a campaign with neither, so no application is ever answered with
// another's runs.
func TestMemoCampaignsMatchMemoless(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign")
	}
	cfg := machine.ScaledOrigin()
	swim, err := apps.ByName("swim")
	if err != nil {
		t.Fatal(err)
	}
	custom := apps.NewSwim()
	custom.Params.Steps--
	spec := func(kind string) apps.App {
		return (&admission.ProgramSpec{
			Name:   "twin",
			Arrays: []admission.ArraySpec{{Name: "u", Elems: 8192}, {Name: "v", Elems: 8192}},
			Regions: []admission.RegionSpec{
				{Name: "sweep", Ops: []admission.OpSpec{{Kind: kind, Array: "u", InstrPer: 3}, {Kind: "compute", Instr: 400}}},
				{Name: "relax", Ops: []admission.OpSpec{{Kind: "read", Array: "v", InstrPer: 2}}},
			},
		}).App()
	}
	shared := &campaign.Runner{Cfg: cfg, Workers: 2, Cache: runcache.New(runcache.Options{}), Recipes: recipe.New(nil)}
	var bodies [][]byte
	for i, app := range []apps.App{swim, custom, spec("read"), spec("write"), swim} {
		plan, err := campaign.NewPlan(app, cfg, 4, 0)
		if err != nil {
			t.Fatal(err)
		}
		got := execute(t, shared, app, plan)
		want := execute(t, &campaign.Runner{Cfg: cfg, Workers: 2}, app, plan)
		if !bytes.Equal(got, want) {
			t.Fatalf("campaign %d (%s): memo campaign differs from a memo-less one", i, app.Name())
		}
		bodies = append(bodies, got)
	}
	// The look-alikes really are different programs, so matching the
	// memo-less runs above means no aliasing.
	if bytes.Equal(bodies[0], bodies[1]) || bytes.Equal(bodies[2], bodies[3]) {
		t.Fatal("the look-alike applications build the same programs; the test proves nothing")
	}
}

// TestMemoEvictedCampaignRebuilds: with a run cache too small to hold any
// run, a repeated campaign finds every key in the memo, rebuilds each
// program lazily, re-simulates, and reproduces the first campaign exactly —
// grid-skipped sizes included.
func TestMemoEvictedCampaignRebuilds(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign")
	}
	cfg := machine.ScaledOrigin()
	app, err := apps.ByName("spmv")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := campaign.NewPlan(app, cfg, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	plan.UniSizes = append(plan.UniSizes, 256) // below spmv's grid: skipped
	mt := obs.NewMetrics()
	rn := &campaign.Runner{Cfg: cfg, Workers: 2, Cache: runcache.New(runcache.Options{MaxBytes: 1}), Recipes: recipe.New(mt)}
	counter := func(name, k, v string) uint64 { return mt.Counter(name, "", k, v).Value() }

	first, err := rn.Run(app, plan)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(first.Skipped, 256) {
		t.Fatalf("skip list %v misses the unbuildable size", first.Skipped)
	}
	builds := counter("scaltool_program_builds_total", "stage", "campaign")
	misses := counter("scaltool_recipe_memo_total", "result", "miss")
	keys := runcache.KeysComputed()

	second, err := rn.Run(app, plan)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resultBytes(t, first), resultBytes(t, second)) {
		t.Fatal("a re-simulated campaign differs from the first")
	}
	if got := counter("scaltool_recipe_memo_total", "result", "miss"); got != misses {
		t.Fatalf("the repeat missed the memo %d times", got-misses)
	}
	if got := runcache.KeysComputed(); got != keys {
		t.Fatalf("the repeat computed %d content keys", got-keys)
	}
	// Every buildable run missed the cache and was rebuilt; the skipped
	// size was answered from the memo without a build.
	runs := uint64(2*len(plan.ProcCounts) + len(plan.UniSizes) - len(first.Skipped) + 1)
	if got := counter("scaltool_program_builds_total", "stage", "campaign") - builds; got != runs {
		t.Fatalf("the repeat built %d programs, want %d (one per re-simulated run)", got, runs)
	}
}
