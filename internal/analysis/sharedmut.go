package analysis

import (
	"go/ast"
	"go/types"
)

// SharedMut flags goroutine literals that write variables shared with the
// spawning function without a guarding lock — the exact shape of the
// sim/campaign worker pools, where one unguarded accumulator write
// corrupts a whole campaign's counters.
//
// Two guarded shapes are accepted:
//
//   - distinct-slot writes, outs[p] = ... where every identifier in the
//     index is local to the goroutine (each worker owns its slot, with a
//     WaitGroup sequencing the reads);
//   - literals that take a sync.Mutex/RWMutex lock anywhere in their body
//     (granularity is per-literal, a deliberate simplification);
//   - writes inside a function literal passed to (*sync.Once).Do, which
//     runs it exactly once, and Do returns only after it has finished.
//
// Writes routed through helper functions called from the goroutine are
// not tracked (the analyzer is intraprocedural).
var SharedMut = &Analyzer{
	Name: "sharedmut",
	Doc:  "flags goroutine literals writing shared state without a lock",
	Run:  runSharedMut,
}

func runSharedMut(pass *Pass) {
	pass.Inspect(func(n ast.Node) bool {
		gs, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		if lit, ok := gs.Call.Fun.(*ast.FuncLit); ok {
			checkGoroutineWrites(pass, lit)
		}
		return true
	})
}

func checkGoroutineWrites(pass *Pass, lit *ast.FuncLit) {
	if holdsLock(pass, lit) {
		return
	}
	// Everything declared inside the literal (params included) is local.
	local := map[types.Object]bool{}
	ast.Inspect(lit, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := pass.Pkg.Info.Defs[id]; obj != nil {
				local[obj] = true
			}
		}
		return true
	})
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.CallExpr:
			return calleeName(pass, st) != "(*sync.Once).Do"
		case *ast.AssignStmt:
			for _, lhs := range st.Lhs {
				checkWrite(pass, lhs, local)
			}
		case *ast.IncDecStmt:
			checkWrite(pass, st.X, local)
		}
		return true
	})
}

func checkWrite(pass *Pass, lhs ast.Expr, local map[types.Object]bool) {
	root, slotted := writeRoot(pass, lhs, local)
	if root == nil {
		return
	}
	obj := pass.Pkg.Info.Uses[root]
	if obj == nil || local[obj] {
		return
	}
	if _, ok := obj.(*types.Var); !ok {
		return
	}
	if slotted {
		return
	}
	pass.Reportf(lhs.Pos(), "goroutine writes %s, which is shared with the spawning function, without a guarding sync.Mutex", types.ExprString(lhs))
}

// writeRoot unwraps an lvalue to its base identifier. slotted reports that
// the path crossed an index whose identifiers are all goroutine-local
// (the distinct-slot worker pattern).
func writeRoot(pass *Pass, e ast.Expr, local map[types.Object]bool) (root *ast.Ident, slotted bool) {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x, slotted
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			if indexIsLocal(pass, x.Index, local) {
				slotted = true
			}
			e = x.X
		default:
			return nil, false
		}
	}
}

// indexIsLocal reports whether every identifier in an index expression is
// local to the goroutine literal.
func indexIsLocal(pass *Pass, idx ast.Expr, local map[types.Object]bool) bool {
	ok := true
	ast.Inspect(idx, func(n ast.Node) bool {
		id, isIdent := n.(*ast.Ident)
		if !isIdent {
			return true
		}
		if obj := pass.Pkg.Info.Uses[id]; obj != nil {
			if _, isVar := obj.(*types.Var); isVar && !local[obj] {
				ok = false
			}
		}
		return true
	})
	return ok
}

// holdsLock reports whether the literal body takes a sync.Mutex or
// sync.RWMutex lock.
func holdsLock(pass *Pass, lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			switch calleeName(pass, call) {
			case "(*sync.Mutex).Lock", "(*sync.RWMutex).Lock", "(*sync.RWMutex).RLock":
				found = true
			}
		}
		return !found
	})
	return found
}

// calleeName is the full name (types.Func.FullName) of the method or
// qualified function a call invokes, or "" for any other callee.
func calleeName(pass *Pass, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := pass.Pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return ""
	}
	return fn.FullName()
}
