package recipe_test

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"scaltool/internal/admission"
	"scaltool/internal/apps"
	"scaltool/internal/campaign"
	"scaltool/internal/machine"
	"scaltool/internal/obs"
	"scaltool/internal/price"
	"scaltool/internal/recipe"
	"scaltool/internal/runcache"
)

var testProcs = []int{1, 2, 8, 32}

// sizes are an application's requested sizes for the memo tests: its
// default, fractions down to ones below every grid (which Build refuses and
// campaigns skip), and one above.
func sizes(app apps.App, cfg machine.Config) []uint64 {
	s0 := app.DefaultBytes(cfg)
	return []uint64{s0, s0 / 2, s0 / 16, s0 * 3 / 2, 4096, 256, 8}
}

// recipes lists every application and kernel recipe the memo tests cover.
func recipes(t *testing.T, cfg machine.Config) []recipe.Recipe {
	t.Helper()
	var out []recipe.Recipe
	for _, name := range apps.Names() {
		app, err := apps.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range testProcs {
			for _, s := range sizes(app, cfg) {
				kind := recipe.Base
				if p == 1 {
					kind = recipe.Uni
				}
				out = append(out, recipe.Recipe{Cfg: cfg, App: app, Kind: kind, Procs: p, Size: s})
			}
		}
	}
	for _, p := range testProcs {
		out = append(out, recipe.Recipe{Cfg: cfg, Kind: recipe.Sync, Procs: p})
		if p >= 2 {
			out = append(out, recipe.Recipe{Cfg: cfg, Kind: recipe.Spin, Procs: p})
		}
	}
	return out
}

// TestBuildersDeterministic is the memo's premise: building a recipe twice
// gives programs with equal content keys, or the same refusal. Every
// registered application and both kernels, at procs {1, 2, 8, 32} and at
// sizes the grids refuse.
func TestBuildersDeterministic(t *testing.T) {
	cfg := machine.ScaledOrigin()
	skipped := 0
	for _, r := range recipes(t, cfg) {
		p1, err1 := r.Build()
		p2, err2 := r.Build()
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("%+v: builds disagree on failing: %v vs %v", r, err1, err2)
		}
		if err1 != nil {
			if err1.Error() != err2.Error() {
				t.Fatalf("%+v: build errors differ: %v vs %v", r, err1, err2)
			}
			skipped++
			continue
		}
		if k1, k2 := runcache.KeyFor(cfg, p1), runcache.KeyFor(cfg, p2); k1 != k2 {
			t.Fatalf("%+v: two builds keyed %s and %s", r, k1, k2)
		}
	}
	if skipped == 0 {
		t.Fatal("no recipe exercised a grid-refused size")
	}
}

// TestMemoMatchesBuild checks every memo answer — miss and hit — against
// building the recipe: the same key, the same price bit for bit, the same
// refusal. Hits build nothing.
func TestMemoMatchesBuild(t *testing.T) {
	cfg := machine.ScaledOrigin()
	mt := obs.NewMetrics()
	m := recipe.New(mt)
	builds := func() uint64 {
		return mt.Counter("scaltool_program_builds_total", "", "stage", "admission").Value() +
			mt.Counter("scaltool_program_builds_total", "", "stage", "campaign").Value()
	}
	rs := recipes(t, cfg)
	for pass := 0; pass < 2; pass++ {
		before := builds()
		for _, r := range rs {
			prog, err := r.Build()
			key, _, kerr := m.Key(r, recipe.Campaign)
			cost, cerr := m.Cost(r, recipe.Admission)
			if err != nil {
				if kerr == nil || cerr == nil || kerr.Error() != err.Error() {
					t.Fatalf("pass %d %+v: memo errors %v / %v, build %v", pass, r, kerr, cerr, err)
				}
				continue
			}
			if kerr != nil || cerr != nil {
				t.Fatalf("pass %d %+v: memo errors %v / %v on a buildable recipe", pass, r, kerr, cerr)
			}
			if want := runcache.KeyFor(cfg, prog); key != want {
				t.Fatalf("pass %d %+v: memo key %s, built %s", pass, r, key, want)
			}
			if want := price.Program(cfg, prog); !sameCost(cost, want) {
				t.Fatalf("pass %d %+v: memo cost %+v, built %+v", pass, r, cost, want)
			}
		}
		if got := builds() - before; pass == 1 && got != 0 {
			t.Fatalf("a pass over memoized recipes built %d programs", got)
		}
	}
	hits := mt.Counter("scaltool_recipe_memo_total", "", "result", "hit").Value()
	misses := mt.Counter("scaltool_recipe_memo_total", "", "result", "miss").Value()
	if want := uint64(len(rs)); misses != want || hits != 3*want {
		t.Fatalf("memo counted %d hits, %d misses; want %d, %d", hits, misses, 3*want, want)
	}
}

// TestMemoAdmissionPricesBitExact: a plan priced through the memo — cold,
// then warm — costs exactly what pricing it by building costs, for every
// application at every power-of-two processor count.
func TestMemoAdmissionPricesBitExact(t *testing.T) {
	cfg := machine.ScaledOrigin()
	b := admission.DefaultBudget()
	m := recipe.New(nil)
	for _, name := range apps.Names() {
		app, err := apps.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for p := 1; p <= 64; p *= 2 {
			plan, err := campaign.NewPlan(app, cfg, p, 0)
			if err != nil {
				t.Fatal(err)
			}
			want, rej := b.EstimatePlan(cfg, app, plan, 2)
			if rej != nil {
				t.Fatalf("%s/p%d: %v", name, p, rej)
			}
			for pass := 0; pass < 2; pass++ {
				got, rej := b.EstimatePlanMemo(m, cfg, app, plan, 2)
				if rej != nil {
					t.Fatalf("%s/p%d: %v", name, p, rej)
				}
				if !sameCost(got, want) {
					t.Fatalf("%s/p%d pass %d: memo-priced %+v, build-priced %+v", name, p, pass, got, want)
				}
			}
		}
	}
}

// TestMemoNeverAliases: recipes that build different programs get
// different entries even when their names agree — two specs named alike,
// and a custom-Params Swim beside the registered one, which is never
// memoized at all.
func TestMemoNeverAliases(t *testing.T) {
	cfg := machine.ScaledOrigin()
	mt := obs.NewMetrics()
	m := recipe.New(mt)
	misses := func() uint64 { return mt.Counter("scaltool_recipe_memo_total", "", "result", "miss").Value() }

	specA := &admission.ProgramSpec{
		Name:    "same",
		Arrays:  []admission.ArraySpec{{Name: "u", Elems: 4096}},
		Regions: []admission.RegionSpec{{Name: "r", Ops: []admission.OpSpec{{Kind: "read", Array: "u", InstrPer: 2}}}},
	}
	specB := &admission.ProgramSpec{
		Name:    "same",
		Arrays:  []admission.ArraySpec{{Name: "u", Elems: 4096}},
		Regions: []admission.RegionSpec{{Name: "r", Ops: []admission.OpSpec{{Kind: "write", Array: "u", InstrPer: 2}}}},
	}
	custom := apps.NewSwim()
	custom.Params.Steps++
	swim, err := apps.ByName("swim")
	if err != nil {
		t.Fatal(err)
	}
	appsUnderTest := []apps.App{specA.App(), specB.App(), swim, custom}
	keys := map[runcache.Key]int{}
	for i, app := range appsUnderTest {
		r := recipe.Recipe{Cfg: cfg, App: app, Kind: recipe.Base, Procs: 4, Size: app.DefaultBytes(cfg)}
		prog, err := r.Build()
		if err != nil {
			t.Fatal(err)
		}
		want := runcache.KeyFor(cfg, prog)
		for pass := 0; pass < 2; pass++ {
			got, _, err := m.Key(r, recipe.Campaign)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("app %d (%s) pass %d: memo key %s, built %s", i, app.Name(), pass, got, want)
			}
		}
		if j, dup := keys[want]; dup {
			t.Fatalf("apps %d and %d (%s) share a content key", j, i, app.Name())
		}
		keys[want] = i
	}
	// The custom Swim misses every time: it is not the registry's swim.
	before := misses()
	r := recipe.Recipe{Cfg: cfg, App: custom, Kind: recipe.Base, Procs: 4, Size: custom.DefaultBytes(cfg)}
	if _, prog, _ := m.Key(r, recipe.Campaign); prog == nil || misses() != before+1 {
		t.Fatal("a custom-Params Swim was served from the memo")
	}
	// A spec's identity is a snapshot: changing the spec afterwards changes
	// neither what its App builds nor its entry.
	appA := specA.App()
	specA.Regions[0].Ops[0].Kind = "write"
	rA := recipe.Recipe{Cfg: cfg, App: appA, Kind: recipe.Base, Procs: 4, Size: appA.DefaultBytes(cfg)}
	progA, err := rA.Build()
	if err != nil {
		t.Fatal(err)
	}
	if j, ok := keys[runcache.KeyFor(cfg, progA)]; !ok || j != 0 {
		t.Fatal("mutating a spec after App() changed what the App builds")
	}
}

// TestMemoBounded: the memo keeps at most Capacity entries, and recently
// used entries survive a flood of new ones.
func TestMemoBounded(t *testing.T) {
	cfg := machine.ScaledOrigin()
	mt := obs.NewMetrics()
	m := recipe.New(mt)
	hot := recipe.Recipe{Cfg: cfg, Kind: recipe.Sync, Procs: 2}
	if _, _, err := m.Key(hot, recipe.Campaign); err != nil {
		t.Fatal(err)
	}
	swim, err := apps.ByName("swim")
	if err != nil {
		t.Fatal(err)
	}
	// Sizes too small for swim's grid build nothing expensive but are
	// memoized like any other recipe.
	for i := 0; i < 2*recipe.Capacity; i++ {
		r := recipe.Recipe{Cfg: cfg, App: swim, Kind: recipe.Uni, Procs: 1, Size: uint64(i % 100)}
		r.Cfg.Name = "flood"
		r.Procs = 1 + i/100
		if _, _, err := m.Key(r, recipe.Campaign); err == nil {
			t.Fatalf("size %d built", r.Size)
		}
		if i%512 == 0 {
			if _, prog, _ := m.Key(hot, recipe.Campaign); prog != nil {
				t.Fatalf("a recently used entry was evicted after %d inserts", i)
			}
		}
	}
	if n := m.Len(); n > recipe.Capacity {
		t.Fatalf("memo holds %d entries, capacity %d", n, recipe.Capacity)
	}
	// Machine configurations are numbered, and only so many: a stream of
	// new ones stops being memoized instead of growing the memo.
	m = recipe.New(nil)
	for i := 0; i < 100; i++ {
		r := recipe.Recipe{Cfg: cfg, Kind: recipe.Sync, Procs: 2}
		r.Cfg.Name = fmt.Sprint("cfg", i)
		if _, _, err := m.Key(r, recipe.Campaign); err != nil {
			t.Fatal(err)
		}
	}
	if n := m.Len(); n >= 100 || n == 0 {
		t.Fatalf("100 machine configurations left %d entries", n)
	}
}

// sameCost compares two costs bit for bit.
func sameCost(a, b price.Cost) bool {
	return math.Float64bits(a.Cycles) == math.Float64bits(b.Cycles) &&
		a.AllocBytes == b.AllocBytes && a.TimelineBytes == b.TimelineBytes && a.Runs == b.Runs
}

// TestMemoConcurrent hammers one memo from several goroutines (run under
// -race): every answer matches the single-threaded one.
func TestMemoConcurrent(t *testing.T) {
	cfg := machine.ScaledOrigin()
	rs := recipes(t, cfg)[:40]
	want := make([]runcache.Key, len(rs))
	for i, r := range rs {
		want[i], _, _ = recipe.New(nil).Key(r, recipe.Campaign)
	}
	m := recipe.New(obs.NewMetrics())
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pass := 0; pass < 3; pass++ {
				for i := range rs {
					r := rs[(i+g*7)%len(rs)]
					got, _, _ := m.Key(r, recipe.Campaign)
					_, _ = m.Cost(r, recipe.Admission)
					if got != want[(i+g*7)%len(rs)] {
						t.Errorf("goroutine %d: %+v keyed %s", g, r, got)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
