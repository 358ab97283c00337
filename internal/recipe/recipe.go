// Package recipe is the materialization stage between a campaign's run
// matrix and the run cache. A run's recipe — machine configuration,
// application, run kind, processor count, data-set size — determines its
// program, so it also determines the program's content key
// (runcache.KeyFor) and its admission price (price.Program). A Memo maps
// recipes to those two values: building and hashing a program happens once
// per recipe, and a warm request answers from a map lookup per run.
//
// The memo does not replace the content key: that is still the SHA-256 over
// the built program, which spill files and fleet routing keys are named by.
// The memo is an in-memory shortcut to it, correct because the builders
// are deterministic within one process (DESIGN.md §17).
package recipe

import (
	"crypto/sha256"
	"sync"

	"scaltool/internal/apps"
	"scaltool/internal/machine"
	"scaltool/internal/obs"
	"scaltool/internal/price"
	"scaltool/internal/runcache"
	"scaltool/internal/sim"
)

// Kind is the sort of program a run builds.
type Kind uint8

const (
	Base Kind = iota // the application at s0, one run per processor count
	Uni              // the application on one processor at a fractional size
	Sync             // the barrier-loop estimation kernel
	Spin             // the idle-spin estimation kernel
)

// Recipe is everything that determines one run's program.
type Recipe struct {
	Cfg   machine.Config
	App   apps.App // the application (Base and Uni); the kernels ignore it
	Kind  Kind
	Procs int
	Size  uint64 // requested data-set size (Base and Uni)
}

// Build builds the recipe's program.
func (r Recipe) Build() (*sim.Program, error) {
	switch r.Kind {
	case Sync:
		return apps.BuildSyncKernel(r.Cfg, r.Procs, apps.SyncKernelBarriers)
	case Spin:
		return apps.BuildSpinKernel(r.Cfg, r.Procs, apps.SpinKernelPhases, apps.SpinKernelWork)
	default:
		return r.App.Build(r.Cfg, r.Procs, r.Size)
	}
}

// Identified is implemented by applications whose identity is their content
// rather than their instance — user program specs, identified by a SHA-256
// of their canonical JSON, so two specs that share a name but not a body
// never share an entry.
type Identified interface {
	ContentID() [sha256.Size]byte
}

// ident is a recipe's memo key. The machine configuration is numbered by
// the memo — a Config is over 200 bytes and a memo sees a handful — and
// the application is identified by its registry instance or its content,
// never by its name.
type ident struct {
	cfg   uint32
	kind  Kind
	procs int
	size  uint64
	app   apps.App
	spec  [sha256.Size]byte
}

// Entry is a materialized recipe: the content key and admission price of
// its program, or the error that building it returned (a uniprocessor size
// below the application's grid, which campaigns skip).
type Entry struct {
	Key  runcache.Key
	Cost price.Cost
	Err  error
}

// Stage names who asked for a build, for scaltool_program_builds_total.
type Stage uint8

const (
	Admission Stage = iota // pricing a request before it is admitted
	Campaign               // running it
	Diagnose               // the structure graph of a diagnosis
	Routing                // the fleet router's placement key
	numStages
)

var stageNames = [numStages]string{"admission", "campaign", "diagnose", "routing"}

// Capacity bounds a Memo's entries. An entry is under 200 bytes, so a full
// memo is well under a megabyte — next to the run results it indexes,
// nothing.
const Capacity = 4096

// maxConfigs bounds the machine configurations a memo numbers; recipes on
// further configurations are not memoized.
const maxConfigs = 64

// Memo maps recipes to entries. It keeps at most Capacity entries in two
// generations: lookups promote old entries to the current generation, and
// when the current one fills, the old generation is dropped. A nil *Memo
// memoizes nothing and counts nothing. Safe for concurrent use.
type Memo struct {
	mu      sync.Mutex
	configs map[machine.Config]uint32 // the configurations seen, numbered
	cur     map[ident]Entry
	old     map[ident]Entry

	hits, misses *obs.Counter
	builds       [numStages]*obs.Counter
}

// New builds an empty memo whose lookups and builds are counted in mt (nil:
// uncounted).
func New(mt *obs.Metrics) *Memo {
	m := &Memo{configs: make(map[machine.Config]uint32), cur: make(map[ident]Entry)}
	if mt != nil {
		m.hits = mt.Counter("scaltool_recipe_memo_total", "recipe memo lookups by result", "result", "hit")
		m.misses = mt.Counter("scaltool_recipe_memo_total", "recipe memo lookups by result", "result", "miss")
		for s, name := range stageNames {
			m.builds[s] = mt.Counter("scaltool_program_builds_total", "simulated programs built, by the stage that built them", "stage", name)
		}
	}
	return m
}

// Len reports how many entries the memo holds.
func (m *Memo) Len() int {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.cur) + len(m.old)
}

// Build builds the recipe's program, counting the build against stage.
// Callers that need the program itself (a cache miss, a structure graph)
// use it; callers that need only its key or price use Key or Cost.
func (m *Memo) Build(r Recipe, stage Stage) (*sim.Program, error) {
	if m != nil {
		m.builds[stage].Inc()
	}
	return r.Build()
}

// Key returns the content key of the recipe's program. On a memo hit
// nothing is built or hashed and prog is nil; otherwise prog is the program
// just built, for the caller to run instead of building it again.
func (m *Memo) Key(r Recipe, stage Stage) (key runcache.Key, prog *sim.Program, err error) {
	e, prog := m.get(r, stage, needKey)
	return e.Key, prog, e.Err
}

// Cost returns the admission price of the recipe's program, building it
// only on a memo miss.
func (m *Memo) Cost(r Recipe, stage Stage) (price.Cost, error) {
	e, _ := m.get(r, stage, needCost)
	return e.Cost, e.Err
}

// What a caller needs of an entry that will not be memoized; a memoized
// entry is always complete.
const (
	needKey = 1 << iota
	needCost
)

// get returns the recipe's memoized entry, or materializes it on a miss
// and returns the program it built.
func (m *Memo) get(r Recipe, stage Stage, need int) (Entry, *sim.Program) {
	if m == nil {
		return m.materialize(r, stage, need)
	}
	m.mu.Lock()
	id, memoize := m.identLocked(r)
	var e Entry
	hit := false
	if memoize {
		if e, hit = m.cur[id]; !hit {
			if e, hit = m.old[id]; hit {
				m.insertLocked(id, e)
			}
		}
	}
	m.mu.Unlock()
	if hit {
		m.hits.Inc()
		return e, nil
	}
	m.misses.Inc()
	if !memoize {
		return m.materialize(r, stage, need)
	}
	e, prog := m.materialize(r, stage, needKey|needCost)
	m.mu.Lock()
	m.insertLocked(id, e)
	m.mu.Unlock()
	return e, prog
}

// identLocked returns the recipe's memo key, or false when the recipe must
// not be memoized: an application that is neither the registry's own
// instance nor content-identified (a custom-Params *apps.Swim, say) could
// build anything under a familiar name. Called with m.mu held.
func (m *Memo) identLocked(r Recipe) (ident, bool) {
	id := ident{kind: r.Kind, procs: r.Procs}
	switch {
	case r.Kind == Sync || r.Kind == Spin:
		// The kernels are the same for every application.
	case r.App == nil:
		return id, false
	default:
		id.size = r.Size
		if c, ok := r.App.(Identified); ok {
			id.spec = c.ContentID()
		} else if apps.Registered(r.App) {
			id.app = r.App
		} else {
			return id, false
		}
	}
	n, ok := m.configs[r.Cfg]
	if !ok {
		if len(m.configs) >= maxConfigs {
			return id, false
		}
		n = uint32(len(m.configs))
		m.configs[r.Cfg] = n
	}
	id.cfg = n
	return id, true
}

// materialize builds the recipe's program and keys and prices it, as need
// asks.
func (m *Memo) materialize(r Recipe, stage Stage, need int) (Entry, *sim.Program) {
	prog, err := m.Build(r, stage)
	if err != nil {
		return Entry{Err: err}, nil
	}
	var e Entry
	if need&needKey != 0 {
		e.Key = runcache.KeyFor(r.Cfg, prog)
	}
	if need&needCost != 0 {
		e.Cost = price.Program(r.Cfg, prog)
	}
	return e, prog
}

// insertLocked adds an entry to the current generation, retiring the old
// generation when the current one is full. Called with m.mu held.
func (m *Memo) insertLocked(id ident, e Entry) {
	if len(m.cur) >= Capacity/2 {
		m.old, m.cur = m.cur, make(map[ident]Entry)
	}
	m.cur[id] = e
}
