// Package mapsend enforces the map-order-send half of the determinism
// contract: inside engine packages, no iteration over a map may feed a
// network send or a wire encoding. Go randomizes map iteration order on
// every range statement, so a send issued from a map walk varies, run to
// run, in the order messages hit the network — and, under a help cap like
// the status retransmitter's, in WHICH messages are sent at all. PR 6's
// 4/0-sag root cause was exactly this shape: a capped walk over the slot
// map chose which stalled slots got retransmission help by map order, and
// two runs of one seed diverged at the first saturated status tick.
//
// The discipline the analyzer enforces is the one the fixed code uses:
// collect the keys into a slice, sort it, and iterate the slice —
//
//	seqs := make([]int64, 0, len(r.log))
//	for n := range r.log {          // collect only: no send in the body
//		seqs = append(seqs, n)
//	}
//	sort.Slice(seqs, ...)
//	for _, n := range seqs {        // deterministic order
//		r.retransmitSlot(sender, r.log[n])
//	}
//
// A send is Env.Send, Env.Multicast or transport.Network.Send, reached
// directly in the range body or transitively through calls: the analyzer
// summarizes every function it sees ("transitively sends") and exports
// the summary as an object fact, so a map walk that calls a helper — even
// one declared in another, earlier-analyzed package — is still caught.
// Wire encodings (message.Marshal, message.EncodeTo) count as sinks
// too: bytes laid out in map order are nondeterministic even when the
// send happens after the loop.
//
// Walks that are provably order-independent are annotated
// //bftvet:allow:mapsend <reason>.
package mapsend

import (
	"go/ast"
	"go/types"

	"bftfast/internal/analysis"
	"bftfast/internal/analysis/detcheck"
)

// Analyzer is the mapsend analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "mapsend",
	Doc:  "forbid map iterations that reach a send or wire encoding in engine packages",
	Run:  run,
	Seeds: []analysis.Seed{
		{Dir: "internal/analysis/mapsend/testdata/src/sendy", ImportPath: "bftfast/internal/core"},
	},
}

// sendsFact marks a function that transitively reaches a send or a wire
// encoding.
const sendsFact = "sends"

func run(pass *analysis.Pass) error {
	lf := analysis.CollectFuncs(pass)

	// Summarize every declared function: does it reach a sink? Exported
	// for downstream packages even when this package is not itself an
	// engine package (a non-engine helper package may still be called
	// from an engine's map walk).
	direct := make(map[*types.Func]bool, len(lf.Decls))
	for fn, decl := range lf.Decls {
		direct[fn] = containsDirectSink(pass, decl.Body)
	}
	sends := lf.Close(direct, func(callee *types.Func) bool {
		return isForeignSink(pass, callee)
	})
	for fn := range sends {
		pass.ExportObjectFact(fn, sendsFact)
	}

	if !detcheck.EnginePackages[pass.Pkg.Path()] {
		return nil
	}

	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok || !rangesOverMap(pass, rng) {
				return true
			}
			checkRangeBody(pass, rng, lf, sends)
			return true
		})
	}
	return nil
}

// rangesOverMap reports whether the range statement iterates a map — a
// map-typed expression, or a maps.Keys/maps.Values view of one.
func rangesOverMap(pass *analysis.Pass, rng *ast.RangeStmt) bool {
	x := analysis.Unparen(rng.X)
	if call, ok := x.(*ast.CallExpr); ok {
		if fn := analysis.CalleeFunc(pass.TypesInfo, call); fn != nil && fn.Pkg() != nil &&
			fn.Pkg().Path() == "maps" && (fn.Name() == "Keys" || fn.Name() == "Values") {
			return true
		}
	}
	t := pass.TypesInfo.TypeOf(x)
	if t == nil {
		return false
	}
	_, isMap := t.Underlying().(*types.Map)
	return isMap
}

// checkRangeBody reports every sink call lexically inside the body of a
// map range, including those reached through function summaries.
func checkRangeBody(pass *analysis.Pass, rng *ast.RangeStmt, lf *analysis.LocalFuncs, sends map[*types.Func]bool) {
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if recv, method, ok := analysis.ReceiverOfCall(call); ok {
			recvType := pass.TypesInfo.TypeOf(recv)
			if analysis.IsProcEnv(recvType) && (method == "Send" || method == "Multicast") {
				pass.Reportf(call.Pos(), "Env.%s inside iteration over a map: map order is nondeterministic per run; collect the keys, sort, and iterate the slice", method)
				return true
			}
			if analysis.IsTransportNetwork(recvType) && method == "Send" {
				pass.Reportf(call.Pos(), "Network.Send inside iteration over a map: map order is nondeterministic per run; collect the keys, sort, and iterate the slice")
				return true
			}
		}
		callee := analysis.CalleeFunc(pass.TypesInfo, call)
		if callee == nil {
			return true
		}
		switch {
		case isMarshal(callee):
			pass.Reportf(call.Pos(), "wire encoding (%s.%s) inside iteration over a map: bytes laid out in map order differ per run; iterate a sorted slice instead", callee.Pkg().Name(), callee.Name())
		case sends[callee] || (lf.Decls[callee] == nil && isForeignSink(pass, callee)):
			pass.Reportf(call.Pos(), "call to %s inside iteration over a map reaches a send: map order is nondeterministic per run; collect the keys, sort, and iterate the slice", callee.Name())
		}
		return true
	})
}

// containsDirectSink reports whether the body performs a send or a wire
// encoding itself.
func containsDirectSink(pass *analysis.Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if recv, method, ok := analysis.ReceiverOfCall(call); ok {
			recvType := pass.TypesInfo.TypeOf(recv)
			if analysis.IsProcEnv(recvType) && (method == "Send" || method == "Multicast") {
				found = true
				return false
			}
			if analysis.IsTransportNetwork(recvType) && method == "Send" {
				found = true
				return false
			}
		}
		if callee := analysis.CalleeFunc(pass.TypesInfo, call); isMarshal(callee) {
			found = true
			return false
		}
		return true
	})
	return found
}

// isForeignSink reports whether a callee declared outside this package
// carries the sends fact from an earlier-analyzed package.
func isForeignSink(pass *analysis.Pass, callee *types.Func) bool {
	return pass.HasObjectFact(callee, sendsFact)
}

// isMarshal reports whether fn is one of the message package's two
// wire-format producers: the owned-buffer form or the scratch-aliasing one.
func isMarshal(fn *types.Func) bool {
	return analysis.IsPkgFunc(fn, "bftfast/internal/message", "Marshal") ||
		analysis.IsPkgFunc(fn, "bftfast/internal/message", "EncodeTo")
}
