package runcache_test

import (
	"testing"

	"scaltool/internal/admission"
	"scaltool/internal/apps"
	"scaltool/internal/machine"
	"scaltool/internal/runcache"
	"scaltool/internal/sim"
)

// goldenSpec is a user program spec with every op kind, gathers included.
func goldenSpec() *admission.ProgramSpec {
	return &admission.ProgramSpec{
		Name:   "golden",
		Arrays: []admission.ArraySpec{{Name: "u", Elems: 4096}, {Name: "idx", Elems: 2048}},
		Regions: []admission.RegionSpec{
			{Name: "sweep", Ops: []admission.OpSpec{
				{Kind: "read", Array: "u", InstrPer: 4, HaloElems: 8},
				{Kind: "write", Array: "u", InstrPer: 2},
				{Kind: "compute", Instr: 500},
			}},
			{Name: "scatter", Ops: []admission.OpSpec{
				{Kind: "gather", Array: "idx", InstrPer: 3, GatherEvery: 16},
				{Kind: "critical", Instr: 40},
			}},
			{Name: "reduce", Serial: true, Ops: []admission.OpSpec{
				{Kind: "read", Array: "idx", InstrPer: 1},
			}},
		},
	}
}

// TestKeyForGolden pins the content key of a few programs on ScaledOrigin.
// Spill files and fleet routing keys are named by these digests, so the
// canonical byte stream KeyFor hashes must never change without a
// keyVersion bump. The values were recorded before the key writer was
// batched; never regenerate them.
func TestKeyForGolden(t *testing.T) {
	cfg := machine.ScaledOrigin()
	build := func(name string, procs int) func() (*sim.Program, error) {
		return func() (*sim.Program, error) {
			app, err := apps.ByName(name)
			if err != nil {
				return nil, err
			}
			return app.Build(cfg, procs, app.DefaultBytes(cfg))
		}
	}
	cases := []struct {
		name  string
		build func() (*sim.Program, error)
		want  string
	}{
		{"swim/p8", build("swim", 8), "8e8f1f3a4ad3d187736304f0331fce8631df179b348e8324010200e94cae3399"},
		{"spmv/p4", build("spmv", 4), "886c1d08d9190362473aca45fe9970be9d9be43200c64a237b62c0f4f5b00fe8"},
		{"ksync/p16", func() (*sim.Program, error) {
			return apps.BuildSyncKernel(cfg, 16, apps.SyncKernelBarriers)
		}, "e0a53994894a900c3acc1a7b826e39d55155b5715d76cf62592249b06d2917d1"},
		{"spec/p4", func() (*sim.Program, error) {
			app := goldenSpec().App()
			return app.Build(cfg, 4, app.DefaultBytes(cfg))
		}, "e29c53361dd509b77b5c6d8493bdebad151803d9291ff4cc69d10a5ba3dcecac"},
	}
	for _, c := range cases {
		prog, err := c.build()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := runcache.KeyFor(cfg, prog).String(); got != c.want {
			t.Errorf("%s: KeyFor = %s; want %s", c.name, got, c.want)
		}
	}
}

// BenchmarkKeyFor measures content-key throughput on a gather-heavy
// program (spmv/p4) and a sequential one (swim/p8).
func BenchmarkKeyFor(b *testing.B) {
	cfg := machine.ScaledOrigin()
	for _, c := range []struct {
		app   string
		procs int
	}{{"spmv", 4}, {"swim", 8}} {
		app, err := apps.ByName(c.app)
		if err != nil {
			b.Fatal(err)
		}
		prog, err := app.Build(cfg, c.procs, app.DefaultBytes(cfg))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.app, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				runcache.KeyFor(cfg, prog)
			}
		})
	}
}
