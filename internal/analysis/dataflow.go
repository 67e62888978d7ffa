package analysis

import (
	"go/ast"
	"go/types"
)

// Shared dataflow scaffolding for the flow-sensitive passes (mapsend,
// macflow): a package-local static call graph and a transitive-closure
// engine over it. The framework stays intraprocedural at the statement
// level; these helpers let a pass summarize whole functions ("this
// function reaches a send", "this method mutates replica state") and
// compose the summaries through calls — including across packages, when
// paired with object facts.

// LocalFuncs is the package-local call graph: every function or method
// declared in the package under analysis, with its statically resolved
// callees.
type LocalFuncs struct {
	// Decls maps each declared function object to its syntax.
	Decls map[*types.Func]*ast.FuncDecl
	// Calls maps each declared function to the set of functions it calls
	// through static references (direct calls and method calls with a
	// statically known callee; calls through function values or
	// interfaces are not edges).
	Calls map[*types.Func]map[*types.Func]bool
}

// CollectFuncs builds the call graph for the package under analysis.
func CollectFuncs(pass *Pass) *LocalFuncs {
	lf := &LocalFuncs{
		Decls: make(map[*types.Func]*ast.FuncDecl),
		Calls: make(map[*types.Func]map[*types.Func]bool),
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			lf.Decls[fn] = fd
			callees := make(map[*types.Func]bool)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if callee := CalleeFunc(pass.TypesInfo, call); callee != nil {
						callees[callee] = true
					}
				}
				return true
			})
			lf.Calls[fn] = callees
		}
	}
	return lf
}

// Close computes the transitive closure of a predicate over the call
// graph: a declared function satisfies the result when direct[fn] holds,
// or when any of its callees satisfies it — declared callees through the
// closure itself, foreign callees through the external predicate (which
// typically consults exported facts). The fixpoint handles recursion.
func (lf *LocalFuncs) Close(direct map[*types.Func]bool, external func(*types.Func) bool) map[*types.Func]bool {
	closed := make(map[*types.Func]bool, len(direct))
	for fn, ok := range direct {
		if ok {
			closed[fn] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for fn := range lf.Decls {
			if closed[fn] {
				continue
			}
			for callee := range lf.Calls[fn] {
				var hit bool
				if _, declared := lf.Decls[callee]; declared {
					hit = closed[callee]
				} else if external != nil {
					hit = external(callee)
				}
				if hit {
					closed[fn] = true
					changed = true
					break
				}
			}
		}
	}
	return closed
}

// ExprKey renders a selector chain or identifier as a canonical string
// ("r.rec", "l.Hist") for syntactic comparison of guard conditions with
// guarded uses. Expressions outside that shape (calls, indexes) return
// "", meaning "not comparable".
func ExprKey(e ast.Expr) string {
	switch x := Unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		base := ExprKey(x.X)
		if base == "" {
			return ""
		}
		return base + "." + x.Sel.Name
	}
	return ""
}

// IsPkgFunc reports whether fn is the named package-level function, e.g.
// IsPkgFunc(fn, "bftfast/internal/message", "Marshal").
func IsPkgFunc(fn *types.Func, pkgPath, name string) bool {
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == pkgPath && fn.Name() == name
}
