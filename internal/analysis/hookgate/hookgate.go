// Package hookgate enforces the observability-hook contract from the
// tracing layer (internal/obs): hooks are nil-gated. Engines and
// transports hold their Recorder/Registry/Histogram hooks in struct
// fields that are nil when observability is disabled — the common case,
// and the one every benchmark's bit-identical-when-off guarantee depends
// on — so a call through such a field must be dominated by a nil check:
//
//	if r.rec != nil {
//		r.rec.Record(r.env.Now(), kind, seq, aux, aux2)
//	}
//
// or the early-return equivalent (if x.f == nil { return } ...), which is
// the shape an engine's trace helper takes to ask Recorder.Wants before
// reading the clock. A call inside the condition that holds the nil check
// (x.f != nil && x.f.Wants(k)) is not covered. The analyzer flags method
// calls whose receiver is a struct-field selector of an obs hook type
// (*obs.Recorder, *obs.Registry, *obs.Histogram) outside such a guard.
//
// Receivers that are plain locals or parameters are exempt: a local is
// almost always the provably non-nil result of a constructor, and a
// parameter's nilness is the caller's contract (RegisterMetrics-style
// wiring functions are only called with live registries). The field is
// where "tracing off" lives, so the field is where the gate must be.
//
// Intentional ungated calls (a field set unconditionally in a
// constructor) are annotated //bftvet:allow:hookgate <reason>.
package hookgate

import (
	"go/ast"
	"go/token"
	"go/types"

	"bftfast/internal/analysis"
)

// Analyzer is the hookgate analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "hookgate",
	Doc:  "require nil checks around obs hook calls made through struct fields",
	Run:  run,
	Seeds: []analysis.Seed{
		{Dir: "internal/analysis/hookgate/testdata/src/hooks", ImportPath: "bftfast/internal/hooks"},
	},
}

// obsPkgPath is the observability package whose hook types are gated.
const obsPkgPath = "bftfast/internal/obs"

// hookTypes are the obs types held behind nil-able hook fields.
var hookTypes = map[string]bool{
	"Recorder":  true,
	"Registry":  true,
	"Histogram": true,
}

func run(pass *analysis.Pass) error {
	if pass.Pkg.Path() == obsPkgPath {
		return nil // the hooks' own package is not a call site
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			fd, ok := n.(*ast.FuncDecl)
			if ok && fd.Body != nil {
				checkFunc(pass, fd.Body)
				return false // checkFunc descends into nested literals itself
			}
			return true
		})
	}
	return nil
}

// checkFunc walks one function body tracking, lexically, which hook-field
// selectors are covered by a dominating nil check.
func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	walkStmts(pass, body.List, map[string]bool{})
}

func copyGuards(g map[string]bool) map[string]bool {
	out := make(map[string]bool, len(g))
	for k, v := range g {
		out[k] = v
	}
	return out
}

// walkStmts processes a statement list under the given guard set. The
// set maps canonical selector strings ("r.rec") to "known non-nil here".
// Guards accumulate within the list when an early-return nil check is
// seen; branch-scoped guards apply only inside their branch.
func walkStmts(pass *analysis.Pass, stmts []ast.Stmt, guarded map[string]bool) {
	for _, s := range stmts {
		walkStmt(pass, s, guarded)
	}
}

func walkStmt(pass *analysis.Pass, s ast.Stmt, guarded map[string]bool) {
	switch st := s.(type) {
	case *ast.IfStmt:
		if st.Init != nil {
			checkExprs(pass, guarded, st.Init)
		}
		checkExprs(pass, guarded, st.Cond)
		// Nil checks in the condition guard the then-branch.
		thenGuards := copyGuards(guarded)
		for _, key := range nonNilConjuncts(st.Cond) {
			thenGuards[key] = true
		}
		walkStmts(pass, st.Body.List, thenGuards)
		if st.Else != nil {
			walkStmt(pass, st.Else, copyGuards(guarded))
		}
		// "if x.f == nil { return }" guards everything after it.
		if key, ok := nilCheckReturns(st); ok {
			guarded[key] = true
		}
	case *ast.BlockStmt:
		walkStmts(pass, st.List, copyGuards(guarded))
	case *ast.ForStmt:
		if st.Init != nil {
			walkStmt(pass, st.Init, guarded)
		}
		if st.Cond != nil {
			checkExprs(pass, guarded, st.Cond)
		}
		if st.Post != nil {
			walkStmt(pass, st.Post, guarded)
		}
		walkStmts(pass, st.Body.List, copyGuards(guarded))
	case *ast.RangeStmt:
		checkExprs(pass, guarded, st.X)
		walkStmts(pass, st.Body.List, copyGuards(guarded))
	case *ast.SwitchStmt:
		if st.Init != nil {
			walkStmt(pass, st.Init, guarded)
		}
		if st.Tag != nil {
			checkExprs(pass, guarded, st.Tag)
		}
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					checkExprs(pass, guarded, e)
				}
				walkStmts(pass, cc.Body, copyGuards(guarded))
			}
		}
	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			walkStmt(pass, st.Init, guarded)
		}
		checkExprs(pass, guarded, st.Assign)
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				walkStmts(pass, cc.Body, copyGuards(guarded))
			}
		}
	case *ast.SelectStmt:
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				if cc.Comm != nil {
					walkStmt(pass, cc.Comm, guarded)
				}
				walkStmts(pass, cc.Body, copyGuards(guarded))
			}
		}
	case *ast.LabeledStmt:
		walkStmt(pass, st.Stmt, guarded)
	default:
		checkExprs(pass, guarded, s)
	}
}

// checkExprs reports ungated hook calls in any expression under the
// given nodes, descending into nested function literals (a closure body
// does not inherit lexical guards: it may run later, after the field
// changed).
func checkExprs(pass *analysis.Pass, guarded map[string]bool, nodes ...ast.Node) {
	for _, node := range nodes {
		ast.Inspect(node, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncLit:
				walkStmts(pass, x.Body.List, map[string]bool{})
				return false
			case *ast.CallExpr:
				checkCall(pass, guarded, x)
			}
			return true
		})
	}
}

// checkCall flags a method call through an unguarded hook field.
func checkCall(pass *analysis.Pass, guarded map[string]bool, call *ast.CallExpr) {
	recv, method, ok := analysis.ReceiverOfCall(call)
	if !ok {
		return
	}
	t := hookType(pass.TypesInfo.TypeOf(recv))
	if t == "" || !isFieldSelector(pass.TypesInfo, recv) {
		return
	}
	key := analysis.ExprKey(recv)
	if key == "" || guarded[key] {
		return
	}
	pass.Reportf(call.Pos(), "obs.%s hook %s.%s called without a nil check on %s: hook fields are nil when observability is disabled", t, key, method, key)
}

// hookType returns the obs hook type name if t is a pointer to one.
func hookType(t types.Type) string {
	if t == nil {
		return ""
	}
	p, ok := t.(*types.Pointer)
	if !ok {
		return "" // hook fields are pointers; a value copy is not nil-able
	}
	n, ok := p.Elem().(*types.Named)
	if !ok {
		return ""
	}
	obj := n.Obj()
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != obsPkgPath || !hookTypes[obj.Name()] {
		return ""
	}
	return obj.Name()
}

// isFieldSelector reports whether e is a selector resolving to a struct
// field (x.f, possibly chained). Plain locals and parameters are not
// field selectors.
func isFieldSelector(info *types.Info, e ast.Expr) bool {
	sel, ok := analysis.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if s, ok := info.Selections[sel]; ok {
		return s.Kind() == types.FieldVal
	}
	return false
}

// nonNilConjuncts extracts the selector keys proven non-nil by a
// condition: "x.f != nil" possibly joined by &&.
func nonNilConjuncts(cond ast.Expr) []string {
	var keys []string
	var walk func(e ast.Expr)
	walk = func(e ast.Expr) {
		switch x := analysis.Unparen(e).(type) {
		case *ast.BinaryExpr:
			switch x.Op {
			case token.LAND:
				walk(x.X)
				walk(x.Y)
			case token.NEQ:
				if key, ok := nilComparison(x); ok {
					keys = append(keys, key)
				}
			}
		}
	}
	walk(cond)
	return keys
}

// nilCheckReturns matches "if x.f == nil { return/continue/break/panic }"
// (no else) and returns the guarded key.
func nilCheckReturns(st *ast.IfStmt) (string, bool) {
	if st.Else != nil || len(st.Body.List) == 0 {
		return "", false
	}
	cmp, ok := analysis.Unparen(st.Cond).(*ast.BinaryExpr)
	if !ok || cmp.Op != token.EQL {
		return "", false
	}
	key, ok := nilComparison(cmp)
	if !ok {
		return "", false
	}
	switch last := st.Body.List[len(st.Body.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return key, true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return key, true
			}
		}
	}
	return "", false
}

// nilComparison returns the selector key of "x.f <op> nil" (either
// operand order).
func nilComparison(cmp *ast.BinaryExpr) (string, bool) {
	for _, pair := range [2][2]ast.Expr{{cmp.X, cmp.Y}, {cmp.Y, cmp.X}} {
		if id, ok := analysis.Unparen(pair[1]).(*ast.Ident); ok && id.Name == "nil" {
			if key := analysis.ExprKey(pair[0]); key != "" {
				return key, true
			}
		}
	}
	return "", false
}
