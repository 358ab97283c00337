// Package apps provides simulated analogues of the applications the paper
// evaluates (Table 4):
//
//   - T3dheat — a PDE solver using conjugate gradient (Los Alamos), PCF
//     directives with explicit barriers. Excellent scalability up to 16
//     processors, poor beyond; good load balance; data set ≈ 10× the L2.
//   - Hydro2d — shallow-water simulation (SPECFP95), MP DOACROSS. Modest
//     scalability (~9 at 32) due to large serial sections.
//   - Swim — Navier-Stokes/shallow-water (SPECFP95), MP DOACROSS. Good
//     scalability (~24 at 32), good static balance, mild boundary sharing.
//
// plus the synthetic estimation kernels of §2.4.2 (barrier, spin, lock) and
// two extra demo applications (blocked matmul, SpMV) used by the examples.
//
// Applications are *generators*: Build produces a sim.Program — the exact
// region/stream structure for a given processor count and data-set size.
// Builders quantize the requested size to their grid geometry; the program's
// DataBytes records the achieved size, and the model interpolates between
// achievable sizes exactly as the paper does when "an application does not
// allow the slicing of the data set to the right size" (§2.4.1).
package apps

import (
	"fmt"
	"sort"

	"scaltool/internal/machine"
	"scaltool/internal/sim"
)

// ElemBytes is the size of one array element (double precision).
const ElemBytes = 8

// App builds simulated programs for one application.
type App interface {
	// Name is the registry key ("t3dheat", "hydro2d", "swim", ...).
	Name() string
	// Description is a one-line summary (Table 4's "What It Does").
	Description() string
	// ParallelModel names the paper's model of parallelism ("PCF" or "MP").
	ParallelModel() string
	// DefaultBytes is the base data-set size s0 for a machine — the
	// app's paper dataset scaled to the machine's L2 (T3dheat 10×,
	// Hydro2d ≈2.6×, Swim ≈4× the per-processor L2).
	DefaultBytes(cfg machine.Config) uint64
	// Build generates the program for a processor count and a requested
	// data-set size. The returned program's DataBytes is the achieved
	// (quantized) size.
	Build(cfg machine.Config, procs int, dataBytes uint64) (*sim.Program, error)
}

// registry of built-in applications.
var registry = map[string]App{}

func register(a App) {
	if _, dup := registry[a.Name()]; dup {
		panic("apps: duplicate registration of " + a.Name())
	}
	registry[a.Name()] = a
}

// ByName looks up a registered application.
func ByName(name string) (App, error) {
	a, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("apps: unknown application %q (have %v)", name, Names())
	}
	return a, nil
}

// Registered reports whether a is the registry's own instance of its name —
// not merely an application of the same type, which may carry different
// parameters (a custom-Params *Swim builds different programs than the
// registered swim).
func Registered(a App) bool {
	r, ok := registry[a.Name()]
	return ok && r == a
}

// Names lists the registered applications, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Range is a contiguous element range [Start, Start+Count).
type Range struct {
	Start, Count uint64
}

// End returns one past the last element.
func (r Range) End() uint64 { return r.Start + r.Count }

// BlockPartition splits total elements into procs near-equal contiguous
// blocks (the SGI MP library's default block scheduling). The first
// total%procs blocks get one extra element.
func BlockPartition(total uint64, procs int) []Range {
	out := make([]Range, procs)
	q := total / uint64(procs)
	r := total % uint64(procs)
	var start uint64
	for p := 0; p < procs; p++ {
		c := q
		if uint64(p) < r {
			c++
		}
		out[p] = Range{Start: start, Count: c}
		start += c
	}
	return out
}

// BlockPartitionAligned is BlockPartition with every block boundary rounded
// to a multiple of alignElems (one cache line of elements). Unaligned
// boundaries put two processors' data in one line — false sharing that the
// paper's array codes avoid by construction (their distributed dimensions
// are whole rows/planes, which are line multiples).
func BlockPartitionAligned(total uint64, procs int, alignElems uint64) []Range {
	if alignElems <= 1 {
		return BlockPartition(total, procs)
	}
	out := make([]Range, procs)
	var start uint64
	for p := 0; p < procs; p++ {
		end := total * uint64(p+1) / uint64(procs)
		end = (end + alignElems/2) / alignElems * alignElems
		if end > total || p == procs-1 {
			end = total
		}
		if end < start {
			end = start
		}
		out[p] = Range{Start: start, Count: end - start}
		start = end
	}
	return out
}

// sweep emits a read or write pass over an element range of an array.
func sweep(s *sim.Stream, arrBase uint64, rg Range, write bool, instrPer uint64) {
	if rg.Count == 0 {
		return
	}
	s.Seq(arrBase+rg.Start*ElemBytes, rg.Count, ElemBytes, write, instrPer)
}

// clampRange intersects [start, start+count) with [0, total).
func clampRange(start int64, count uint64, total uint64) Range {
	if start < 0 {
		if uint64(-start) >= count {
			return Range{}
		}
		count -= uint64(-start)
		start = 0
	}
	if uint64(start) >= total {
		return Range{}
	}
	if uint64(start)+count > total {
		count = total - uint64(start)
	}
	return Range{Start: uint64(start), Count: count}
}

// treeReduce appends the log2(procs) barrier-separated combining steps of a
// reduction over a partials array (one cache-line-padded slot per
// processor). Each step, active processors read their partner's slot and
// update their own — the paper's explicit-barrier PCF reduction pattern.
func treeReduce(prog *sim.Program, name string, partials uint64, slotStride uint64, procs int, flops uint64) {
	for k := 1; k < procs; k *= 2 {
		reg := prog.AddRegion(name)
		for p := 0; p+k < procs; p += 2 * k {
			st := reg.Proc(p)
			st.Gather([]uint64{partials + uint64(p+k)*slotStride}, false, flops)
			st.Gather([]uint64{partials + uint64(p)*slotStride}, true, flops)
		}
	}
}

// icbrt returns the largest integer n with n³ ≤ v.
func icbrt(v uint64) uint64 {
	n := uint64(1)
	for (n+1)*(n+1)*(n+1) <= v {
		n++
	}
	return n
}

// isqrt returns the largest integer n with n² ≤ v.
func isqrt(v uint64) uint64 {
	n := uint64(1)
	for (n+1)*(n+1) <= v {
		n++
	}
	return n
}
