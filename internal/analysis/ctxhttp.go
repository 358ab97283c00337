package analysis

import (
	"go/ast"
	"go/types"
)

// CtxHTTP checks that the serving path honors its request context end to
// end. A handler that spawns work under context.Background()/TODO() — or in
// a bare goroutine — has detached that work from the request: the client
// disconnects, the per-request deadline fires, the server drains for
// SIGTERM, and the orphaned work keeps burning a worker slot. The analyzer
// uses the call graph to follow handlers transitively: every function in
// this package reachable from an HTTP-handler-shaped function is part of
// the serving path and held to the same rule. So is every function the
// package marks //scalvet:hot: the serving path's roots the call graph
// cannot reach through a handler, such as closures and function values.
var CtxHTTP = &Analyzer{
	Name:         "ctxhttp",
	Doc:          "flags serve handlers spawning work without r.Context()",
	PathSuffixes: []string{"internal/serve"},
	Run:          runCtxHTTP,
}

func runCtxHTTP(pass *Pass) {
	reach := handlerReachable(pass)
	for _, file := range pass.Pkg.Files {
		for _, d := range file.Decls {
			decl, ok := d.(*ast.FuncDecl)
			if !ok || decl.Body == nil {
				continue
			}
			fn, ok := pass.Pkg.Info.Defs[decl.Name].(*types.Func)
			if !ok || !reach[fn] {
				continue
			}
			checkCtxBody(pass, decl)
		}
	}
}

// handlerReachable walks the call graph from this package's handler-shaped
// and //scalvet:hot functions; only same-package functions are returned
// (each package's pass reports its own findings).
func handlerReachable(pass *Pass) map[*types.Func]bool {
	reach := map[*types.Func]bool{}
	var queue []*types.Func
	for fn, di := range pass.Facts.decls {
		if di.pkg == pass.Pkg && (isHandlerShaped(fn) || hasHotAnnotation(di.decl)) {
			reach[fn] = true
			queue = append(queue, fn)
		}
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		for callee := range pass.Facts.calls[fn] {
			if reach[callee] {
				continue
			}
			if _, ok := pass.Facts.decls[callee]; !ok {
				continue
			}
			// Follow through other packages too — a serve helper may route
			// through shared code back into serve; reports stay local.
			reach[callee] = true
			queue = append(queue, callee)
		}
	}
	// Restrict reporting to this package's declarations.
	local := map[*types.Func]bool{}
	for fn := range reach {
		if di, ok := pass.Facts.decls[fn]; ok && di.pkg == pass.Pkg {
			local[fn] = true
		}
	}
	return local
}

func checkCtxBody(pass *Pass, decl *ast.FuncDecl) {
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			fn := calleeFunc(pass.Pkg.Info, x)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
				return true
			}
			if fn.Name() == "Background" || fn.Name() == "TODO" {
				pass.Reportf(x.Pos(), "handler-reachable %s creates context.%s, detaching work from the request; propagate r.Context() instead",
					funcDeclSymbol(decl), fn.Name())
			}
		case *ast.GoStmt:
			found := false
			ast.Inspect(x, func(m ast.Node) bool {
				if e, ok := m.(ast.Expr); ok && isContextType(pass.TypeOf(e)) {
					found = true
				}
				return !found
			})
			if !found {
				pass.Reportf(x.Pos(), "handler-reachable %s launches a goroutine no context reaches; pass the request context so cancellation and drain stop it",
					funcDeclSymbol(decl))
			}
		}
		return true
	})
}
