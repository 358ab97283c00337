// Package price holds the unit prices admission charges for simulated work:
// the Cost of one run, computed either by walking a built sim.Program
// (Program) or in closed form from a tally of its counts (Tally.Cost, which
// user program specs use without building anything).
//
// The prices are deliberately pessimistic upper bounds: every memory access
// is charged its worst case and every barrier its hot-spot serialization.
// Both paths charge the same unit prices, so built-in and user-submitted
// programs are budgeted on one scale. The package sits below admission so
// the recipe memo (internal/recipe) can keep a run's price next to its
// content key.
package price

import (
	"scaltool/internal/machine"
	"scaltool/internal/sim"
)

// Cost is the predicted resource footprint of admitting one request — the
// unit both budgets and the ledger account in.
type Cost struct {
	// Cycles is the predicted simulated-cycle total across every run of the
	// request's campaign, summed over processors (an upper bound; this is
	// the unit CPU time scales with).
	Cycles float64
	// AllocBytes is the predicted peak allocation footprint: simulator cache
	// and directory state, gather address lists, and retained results.
	AllocBytes int64
	// TimelineBytes is the retained per-region × per-processor timeline and
	// counter data of the campaign's results (what the run cache will hold).
	TimelineBytes int64
	// Runs counts the campaign's planned simulation runs.
	Runs int
}

// Plus returns the sum of two costs.
func (c Cost) Plus(o Cost) Cost {
	return Cost{
		Cycles:        c.Cycles + o.Cycles,
		AllocBytes:    c.AllocBytes + o.AllocBytes,
		TimelineBytes: c.TimelineBytes + o.TimelineBytes,
		Runs:          c.Runs + o.Runs,
	}
}

// Per-entity accounting sizes (bytes, deliberately generous): simulator
// cache-line state, directory/page-table entries, and retained per-region ×
// per-processor timeline records.
const (
	lineStateBytes = 64
	pageStateBytes = 96
	PhaseBytes     = 128
	ProcStateBytes = 512
)

// accessCycles prices one memory access at its worst: L1 miss, L2 miss,
// remote home (hypercube diameter hops), dirty forward.
func accessCycles(cfg machine.Config, procs int) float64 {
	hops := 1
	for nodes := (procs + cfg.ProcsPerRouter - 1) / cfg.ProcsPerRouter; nodes > 1; nodes /= 2 {
		hops++
	}
	return cfg.Cost.L1HitCPI +
		float64(cfg.Lat.L2Hit+cfg.Lat.MemLocal+cfg.Lat.Directory+cfg.Lat.DirtyFwd+cfg.Lat.TLBMiss) +
		float64(2*hops*cfg.Lat.RouterHop)
}

// Barrier prices one region's closing barrier: entry/exit instructions and
// fetchop acquire per processor, plus the release flag's serialized
// per-waiter service — the hot spot that grows with the processor count —
// charged to every waiter.
func Barrier(cfg machine.Config, procs int) float64 {
	p := float64(procs)
	return p*(float64(cfg.Sync.BarrierInstr)*cfg.Cost.ComputeCPI+float64(cfg.Lat.SyncAcquire)) +
		p*p*float64(cfg.Lat.SyncService)
}

// Tally accumulates a program's (or spec's) raw counts.
type Tally struct {
	Instr         float64 // non-memory instructions, all processors
	Accesses      float64 // memory accesses, all processors
	CriticalInstr float64 // instructions inside critical sections
	GatherBytes   int64   // retained gather address-list bytes
	Regions       int
}

// Cost prices a tally on a machine.
func (t Tally) Cost(cfg machine.Config, procs int, spaceBytes uint64) Cost {
	cycles := t.Instr*cfg.Cost.ComputeCPI + t.Accesses*accessCycles(cfg, procs)
	// Critical sections serialize across processors: the worst waiter sees
	// every other processor's sections ahead of its own.
	cycles += t.CriticalInstr * cfg.Cost.ComputeCPI * float64(procs-1)
	cycles += float64(t.Regions) * Barrier(cfg, procs)

	lines := int64(spaceBytes) / int64(cfg.L2.LineBytes)
	if fa := int64(t.Accesses); lines > fa { // can't touch more lines than accesses
		lines = fa
	}
	pages := int64(spaceBytes)/int64(cfg.PageBytes) + 1
	timeline := int64(t.Regions)*int64(procs)*PhaseBytes + int64(procs)*ProcStateBytes
	alloc := int64(procs)*int64(cfg.L1.Lines()+cfg.L2.Lines())*lineStateBytes +
		lines*lineStateBytes + pages*pageStateBytes + t.GatherBytes + timeline

	return Cost{Cycles: cycles, AllocBytes: alloc, TimelineBytes: timeline, Runs: 1}
}

// Program prices one built program: the predicted simulated cycles (upper
// bound), allocation footprint, and retained timeline bytes of running it
// on cfg.
func Program(cfg machine.Config, prog *sim.Program) Cost {
	var t Tally
	regions := prog.Regions()
	t.Regions = len(regions)
	for ri := range regions {
		for pi := range regions[ri].Streams {
			for _, op := range regions[ri].Streams[pi].Ops {
				switch op.Kind {
				case sim.OpCompute:
					t.Instr += float64(op.Instr)
				case sim.OpSeq:
					t.Accesses += float64(op.Count)
					t.Instr += float64(op.Count) * float64(op.InstrPer)
				case sim.OpGather:
					n := float64(len(op.Addrs))
					t.Accesses += n
					t.Instr += n * float64(op.InstrPer)
					t.GatherBytes += int64(len(op.Addrs)) * 8
				case sim.OpCritical:
					t.Instr += float64(op.Instr) + float64(cfg.Sync.LockInstr)
					t.CriticalInstr += float64(op.Instr)
				}
			}
		}
	}
	return t.Cost(cfg, prog.Procs, prog.SpaceBytes())
}
