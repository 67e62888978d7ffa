// Package macflow is a taint pass proving bytes read off the transport
// cannot reach replica state mutation without passing a MAC (or digest)
// verification. The protocol's safety argument assumes every message
// that changes engine state was authenticated first — the analyzer
// checks the code actually enforces that on every lexical path.
//
// Taint enters at proc.Handler Receive([]byte) methods of types in
// engine packages (detcheck.EnginePackages). It propagates through
// assignments, decoder results, pointer out-arguments of calls that see
// tainted data (message.UnmarshalInto decoding into engine-owned
// scratch), and type-switch bindings, and it follows calls into
// package-local functions (the worklist re-walks the callee with the
// corresponding parameters tainted).
//
// A function's walk is armed until it meets a verification event:
//
//   - a call into bftfast/internal/crypto whose name starts with Verify
//     (VerifySingle, VerifyEntry, Suite.VerifyAuth, ...)
//   - an == or != comparison of crypto.Digest values (content validated
//     against an already-trusted digest)
//   - a call to any function that transitively performs one of the above
//     (summarized by the exported "verifies" fact, so helpers in other
//     packages count)
//
// Before that event, an assignment storing tainted data into
// receiver-rooted state (r.field..., or through a local aliasing such
// state) is reported. Decoder scratch writes are not stores — decoding
// is how taint moves, quarantined until the verify; the `stats` field is
// exempt (drop counters legitimately tick before verification); and
// handing tainted bytes to an interface method (proc.Handler.Receive in
// the adversary wrapper, StateMachine.Execute in norep) is a handoff to
// code outside the package-local graph, checked at its own entry points.
//
// Deliberate pre-verification retention (fragment reassembly buffers,
// raw view-change retransmission copies) is annotated
// //bftvet:allow:macflow with the quarantine argument.
package macflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"bftfast/internal/analysis"
	"bftfast/internal/analysis/detcheck"
)

// verifiesFact marks functions that transitively perform a crypto
// verification event.
const verifiesFact = "verifies"

// Analyzer is the macflow analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "macflow",
	Doc:  "prove transport bytes pass crypto verification before mutating replica state",
	Run:  run,
	Seeds: []analysis.Seed{
		{Dir: "internal/analysis/macflow/testdata/src/flow", ImportPath: "bftfast/internal/core"},
	},
}

const cryptoPkgPath = "bftfast/internal/crypto"

func run(pass *analysis.Pass) error {
	lf := analysis.CollectFuncs(pass)

	// Summarize which local functions verify, transitively, and export
	// the summaries for downstream packages.
	direct := map[*types.Func]bool{}
	for fn, decl := range lf.Decls {
		if containsVerifyEvent(pass, decl) {
			direct[fn] = true
		}
	}
	verifies := lf.Close(direct, func(fn *types.Func) bool {
		return isCryptoVerify(fn) || pass.HasObjectFact(fn, verifiesFact)
	})
	for fn := range verifies {
		pass.ExportObjectFact(fn, verifiesFact)
	}

	if !detcheck.EnginePackages[pass.Pkg.Path()] {
		return nil
	}

	w := &walker{
		pass:     pass,
		lf:       lf,
		verifies: verifies,
		seen:     map[workItem]bool{},
		reported: map[token.Pos]bool{},
	}
	// Taint enters at Receive([]byte) handler methods.
	for fn, decl := range lf.Decls {
		if decl.Recv == nil || fn.Name() != "Receive" {
			continue
		}
		if mask := byteSliceParams(pass, decl); mask != 0 {
			w.queue = append(w.queue, workItem{fn: fn, mask: mask})
		}
	}
	for len(w.queue) > 0 {
		item := w.queue[0]
		w.queue = w.queue[1:]
		if w.seen[item] {
			continue
		}
		w.seen[item] = true
		w.walkFunc(item)
	}
	return nil
}

// workItem is one (function, tainted-parameter-set) pair to analyze.
type workItem struct {
	fn   *types.Func
	mask uint64 // bit i set = i'th declared parameter carries tainted bytes
}

type walker struct {
	pass     *analysis.Pass
	lf       *analysis.LocalFuncs
	verifies map[*types.Func]bool
	queue    []workItem
	seen     map[workItem]bool
	reported map[token.Pos]bool
}

// funcState is the per-function lexical walk state.
type funcState struct {
	w        *walker
	tainted  map[string]bool // selector keys holding unverified bytes
	aliases  map[string]bool // root idents aliasing receiver state
	verified bool            // a verification event has been passed
}

func (w *walker) walkFunc(item workItem) {
	decl := w.lf.Decls[item.fn]
	if decl == nil || decl.Body == nil {
		return
	}
	fs := &funcState{w: w, tainted: map[string]bool{}, aliases: map[string]bool{}}
	if decl.Recv != nil && len(decl.Recv.List) > 0 && len(decl.Recv.List[0].Names) > 0 {
		fs.aliases[decl.Recv.List[0].Names[0].Name] = true
	}
	i := 0
	for _, field := range decl.Type.Params.List {
		for _, name := range field.Names {
			if item.mask&(1<<uint(i)) != 0 {
				fs.tainted[name.Name] = true
			}
			i++
		}
		if len(field.Names) == 0 {
			i++
		}
	}
	fs.stmts(decl.Body.List)
}

func (fs *funcState) stmts(list []ast.Stmt) {
	for _, s := range list {
		fs.stmt(s)
	}
}

func (fs *funcState) stmt(s ast.Stmt) {
	switch x := s.(type) {
	case *ast.AssignStmt:
		fs.assign(x)
	case *ast.ExprStmt:
		fs.expr(x.X)
	case *ast.ReturnStmt:
		for _, e := range x.Results {
			fs.expr(e)
		}
	case *ast.IfStmt:
		if x.Init != nil {
			fs.stmt(x.Init)
		}
		fs.expr(x.Cond)
		fs.stmts(x.Body.List)
		if x.Else != nil {
			fs.stmt(x.Else)
		}
	case *ast.BlockStmt:
		fs.stmts(x.List)
	case *ast.ForStmt:
		if x.Init != nil {
			fs.stmt(x.Init)
		}
		if x.Cond != nil {
			fs.expr(x.Cond)
		}
		if x.Post != nil {
			fs.stmt(x.Post)
		}
		fs.stmts(x.Body.List)
	case *ast.RangeStmt:
		fs.expr(x.X)
		// Range bindings over a tainted collection are tainted.
		if fs.taintedExpr(x.X) {
			for _, b := range []ast.Expr{x.Key, x.Value} {
				if id, ok := b.(*ast.Ident); ok && id.Name != "_" {
					fs.tainted[id.Name] = true
				}
			}
		}
		fs.stmts(x.Body.List)
	case *ast.SwitchStmt:
		if x.Init != nil {
			fs.stmt(x.Init)
		}
		if x.Tag != nil {
			fs.expr(x.Tag)
		}
		for _, cl := range x.Body.List {
			if cc, ok := cl.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					fs.expr(e)
				}
				fs.stmts(cc.Body)
			}
		}
	case *ast.TypeSwitchStmt:
		if x.Init != nil {
			fs.stmt(x.Init)
		}
		// "switch msg := m.(type)": the binding inherits m's taint.
		var binding string
		var subject ast.Expr
		if as, ok := x.Assign.(*ast.AssignStmt); ok && len(as.Lhs) == 1 && len(as.Rhs) == 1 {
			if id, ok := as.Lhs[0].(*ast.Ident); ok {
				binding = id.Name
			}
			if ta, ok := analysis.Unparen(as.Rhs[0]).(*ast.TypeAssertExpr); ok {
				subject = ta.X
			}
		} else if es, ok := x.Assign.(*ast.ExprStmt); ok {
			if ta, ok := analysis.Unparen(es.X).(*ast.TypeAssertExpr); ok {
				subject = ta.X
			}
		}
		if binding != "" && subject != nil && fs.taintedExpr(subject) {
			fs.tainted[binding] = true
		}
		for _, cl := range x.Body.List {
			if cc, ok := cl.(*ast.CaseClause); ok {
				fs.stmts(cc.Body)
			}
		}
	case *ast.SelectStmt:
		for _, cl := range x.Body.List {
			if cc, ok := cl.(*ast.CommClause); ok {
				if cc.Comm != nil {
					fs.stmt(cc.Comm)
				}
				fs.stmts(cc.Body)
			}
		}
	case *ast.LabeledStmt:
		fs.stmt(x.Stmt)
	case *ast.DeclStmt:
		if gd, ok := x.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for i, v := range vs.Values {
						fs.expr(v)
						if fs.taintedExpr(v) && i < len(vs.Names) {
							fs.tainted[vs.Names[i].Name] = true
						}
					}
				}
			}
		}
	case *ast.DeferStmt:
		fs.expr(x.Call)
	case *ast.GoStmt:
		fs.expr(x.Call)
	case *ast.SendStmt:
		fs.expr(x.Chan)
		fs.expr(x.Value)
	case *ast.IncDecStmt:
		fs.expr(x.X)
	}
}

// assign propagates taint and checks the store-into-state sink.
func (fs *funcState) assign(as *ast.AssignStmt) {
	for _, rhs := range as.Rhs {
		fs.expr(rhs) // calls inside the RHS (verify events, enqueues)
	}
	rhsTainted := false
	for _, rhs := range as.Rhs {
		if fs.taintedExpr(rhs) {
			rhsTainted = true
		}
	}
	for i, lhs := range as.Lhs {
		// Sink: unverified tainted bytes stored into receiver state.
		if rhsTainted && !fs.verified {
			if root, path, isStore := stateLvalue(lhs); isStore && fs.aliases[root] && !statsPath(path) {
				fs.w.reportOnce(lhs.Pos(), "unverified message bytes stored into %s before any crypto verification (Verify* call or Digest comparison)", lvalueString(lhs))
			}
		}
		// Taint propagation, including strong updates of simple keys.
		if key := analysis.ExprKey(lhs); key != "" {
			if rhsTainted {
				fs.tainted[key] = true
			} else if as.Tok == token.ASSIGN || as.Tok == token.DEFINE {
				delete(fs.tainted, key)
			}
		}
		// Alias tracking: a reference-typed local built from state
		// aliases receiver state.
		if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" && i < len(as.Rhs) {
			if fs.rootedInAlias(as.Rhs[i]) && isRefType(fs.w.pass.TypesInfo.TypeOf(id)) {
				fs.aliases[id.Name] = true
			}
		}
	}
}

// expr handles verification events, call-site propagation, and callee
// enqueueing anywhere inside an expression.
func (fs *funcState) expr(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false // closures run later; out of the lexical walk
		case *ast.BinaryExpr:
			if (x.Op == token.EQL || x.Op == token.NEQ) && (isDigestType(fs.w.pass.TypesInfo.TypeOf(x.X)) || isDigestType(fs.w.pass.TypesInfo.TypeOf(x.Y))) {
				fs.verified = true
			}
		case *ast.CallExpr:
			fs.call(x)
		}
		return true
	})
}

func (fs *funcState) call(call *ast.CallExpr) {
	callee := analysis.CalleeFunc(fs.w.pass.TypesInfo, call)
	if callee != nil {
		if isCryptoVerify(callee) || fs.w.verifies[callee] || fs.w.pass.HasObjectFact(callee, verifiesFact) {
			fs.verified = true
			return
		}
	}

	anyTainted := false
	for _, arg := range call.Args {
		if fs.taintedExpr(arg) {
			anyTainted = true
			break
		}
	}
	if !anyTainted {
		return
	}

	// Decoding into a pointer argument moves the taint there.
	for _, arg := range call.Args {
		if key := pointerArgKey(fs.w.pass.TypesInfo, arg); key != "" {
			fs.tainted[key] = true
		}
	}

	// Follow the taint into package-local callees (unless this walk
	// already passed a verification event).
	if callee != nil && !fs.verified {
		if decl := fs.w.lf.Decls[callee]; decl != nil {
			mask := uint64(0)
			params := paramNames(decl)
			for i, arg := range call.Args {
				if i < len(params) && fs.taintedExpr(arg) {
					mask |= 1 << uint(i)
				}
			}
			if mask != 0 {
				fs.w.queue = append(fs.w.queue, workItem{fn: callee, mask: mask})
			}
		}
	}
}

// taintedExpr reports whether any identifier or selector chain in e
// resolves to a tainted key (or extends one: r.scratch tainted makes
// r.scratch.Seq tainted).
func (fs *funcState) taintedExpr(e ast.Expr) bool {
	if len(fs.tainted) == 0 {
		return false
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.Ident:
			if fs.tainted[x.Name] {
				found = true
			}
		case *ast.SelectorExpr:
			if key := analysis.ExprKey(x); key != "" && fs.taintedKey(key) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

func (fs *funcState) taintedKey(key string) bool {
	if fs.tainted[key] {
		return true
	}
	for t := range fs.tainted {
		if strings.HasPrefix(key, t+".") {
			return true
		}
	}
	return false
}

// rootedInAlias reports whether e's leftmost identifier is a state alias
// (so a reference derived from it still points into state).
func (fs *funcState) rootedInAlias(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && fs.aliases[id.Name] {
			found = true
		}
		return !found
	})
	return found
}

func (w *walker) reportOnce(pos token.Pos, format string, args ...interface{}) {
	if w.reported[pos] {
		return
	}
	w.reported[pos] = true
	w.pass.Reportf(pos, format, args...)
}

// stateLvalue decomposes an assignment target: its root identifier, the
// field names along the path, and whether it selects into something
// (a bare identifier is a local, never a state store).
func stateLvalue(e ast.Expr) (root string, path []string, isStore bool) {
	for {
		switch x := analysis.Unparen(e).(type) {
		case *ast.SelectorExpr:
			path = append(path, x.Sel.Name)
			e = x.X
			isStore = true
		case *ast.IndexExpr:
			e = x.X
			isStore = true
		case *ast.StarExpr:
			e = x.X
			isStore = true
		case *ast.Ident:
			return x.Name, path, isStore
		default:
			return "", nil, false
		}
	}
}

// pointerArgKey returns the taint key of a pointer-shaped argument: &x
// yields x's key, and an identifier or selector of pointer type yields
// its own key. Decoding calls store through these.
func pointerArgKey(info *types.Info, arg ast.Expr) string {
	e := analysis.Unparen(arg)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		return analysis.ExprKey(u.X)
	}
	if t := info.TypeOf(e); t != nil {
		if _, ok := t.Underlying().(*types.Pointer); ok {
			return analysis.ExprKey(e)
		}
	}
	return ""
}

// statsPath exempts the drop-counter field: ticking stats on a rejected
// message is how rejection is observed.
func statsPath(path []string) bool {
	for _, p := range path {
		if p == "stats" || p == "Stats" {
			return true
		}
	}
	return false
}

func lvalueString(e ast.Expr) string {
	if key := analysis.ExprKey(e); key != "" {
		return key
	}
	root, path, _ := stateLvalue(e)
	if root == "" {
		return "state"
	}
	// stateLvalue collects field names innermost-first.
	for i := len(path) - 1; i >= 0; i-- {
		root += "." + path[i]
	}
	return root
}

// containsVerifyEvent reports whether the function body performs a
// verification event directly.
func containsVerifyEvent(pass *analysis.Pass, decl *ast.FuncDecl) bool {
	if decl.Body == nil {
		return false
	}
	found := false
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch x := n.(type) {
		case *ast.CallExpr:
			if fn := analysis.CalleeFunc(pass.TypesInfo, x); fn != nil && isCryptoVerify(fn) {
				found = true
			}
		case *ast.BinaryExpr:
			if (x.Op == token.EQL || x.Op == token.NEQ) && (isDigestType(pass.TypesInfo.TypeOf(x.X)) || isDigestType(pass.TypesInfo.TypeOf(x.Y))) {
				found = true
			}
		}
		return !found
	})
	return found
}

// isCryptoVerify matches the crypto package's verification surface:
// any of its functions or methods named Verify*.
func isCryptoVerify(fn *types.Func) bool {
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == cryptoPkgPath && strings.HasPrefix(fn.Name(), "Verify")
}

func isDigestType(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == cryptoPkgPath && obj.Name() == "Digest"
}

func isRefType(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Slice, *types.Chan:
		return true
	}
	return false
}

// byteSliceParams returns the parameter mask of []byte parameters.
func byteSliceParams(pass *analysis.Pass, decl *ast.FuncDecl) uint64 {
	var mask uint64
	i := 0
	for _, field := range decl.Type.Params.List {
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		isBytes := isByteSlice(pass.TypesInfo.TypeOf(field.Type))
		for j := 0; j < n; j++ {
			if isBytes {
				mask |= 1 << uint(i)
			}
			i++
		}
	}
	return mask
}

func isByteSlice(t types.Type) bool {
	s, ok := t.(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

// paramNames returns the declared parameter names in order.
func paramNames(decl *ast.FuncDecl) []string {
	var names []string
	for _, field := range decl.Type.Params.List {
		if len(field.Names) == 0 {
			names = append(names, "_")
			continue
		}
		for _, name := range field.Names {
			names = append(names, name.Name)
		}
	}
	return names
}
