package analysis

import (
	"go/ast"
	"go/types"
)

// CloseCheck flags discarded (*os.File).Close and Sync error returns on
// write paths. On POSIX filesystems a write error can surface only at
// close/fsync time (delayed allocation, NFS, full disks): a campaign that
// ignores those errors persists a truncated report or spill file and
// calls it saved — the exact corruption the tolerant loaders then have to
// quarantine. A file is on a write path when it was opened in this package
// by os.Create, os.OpenFile, or os.CreateTemp; read-only files (os.Open)
// are exempt, since their close error loses no data.
//
// Flagged forms: a bare `f.Close()` / `f.Sync()` expression statement and
// `defer f.Close()` / `defer f.Sync()`. Checking the error, returning it,
// or explicitly discarding it with `_ =` (a visible, deliberate choice on
// an error path) all satisfy the check.
var CloseCheck = &Analyzer{
	Name: "closecheck",
	Doc:  "flags unchecked (*os.File).Close/Sync errors on write paths",
	Run:  runCloseCheck,
}

func runCloseCheck(pass *Pass) {
	// First pass: every variable in the package assigned from a
	// write-capable os open. Objects are package-global in types.Info, so a
	// deferred closure closing its enclosing function's file resolves to
	// the same object.
	writeFiles := map[types.Object]bool{}
	pass.Inspect(func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 || len(as.Lhs) == 0 {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok || !isWriteOpen(pass, call) {
			return true
		}
		if id, ok := as.Lhs[0].(*ast.Ident); ok {
			if obj := pass.Pkg.Info.ObjectOf(id); obj != nil {
				writeFiles[obj] = true
			}
		}
		return true
	})
	if len(writeFiles) == 0 {
		return
	}

	// Second pass: bare and deferred Close/Sync calls on those files. Both
	// forms drop the error on the floor; everything else (if-statements,
	// returns, `_ =`) keeps it visible.
	pass.Inspect(func(n ast.Node) bool {
		var call *ast.CallExpr
		switch st := n.(type) {
		case *ast.ExprStmt:
			call, _ = st.X.(*ast.CallExpr)
		case *ast.DeferStmt:
			call = st.Call
		default:
			return true
		}
		if call == nil {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Close" && sel.Sel.Name != "Sync") {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok || !writeFiles[pass.Pkg.Info.ObjectOf(id)] {
			return true
		}
		pass.Reportf(call.Pos(),
			"unchecked (*os.File).%s error on a write path; a delayed write error is lost — check it, return it, or discard it explicitly with _ =",
			sel.Sel.Name)
		return true
	})
}

// isWriteOpen reports whether call is os.Create, os.OpenFile, or
// os.CreateTemp.
func isWriteOpen(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.Pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "os" {
		return false
	}
	switch fn.Name() {
	case "Create", "OpenFile", "CreateTemp":
		return true
	}
	return false
}
