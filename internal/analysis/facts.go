package analysis

import "go/types"

// Facts is a cross-package fact store. An analyzer running over one
// package can export a named fact about an object it declares (for
// example mapsend's "sends": this function transitively reaches a
// network send); when the same analyzer later runs over a package that
// imports the first, it queries the fact through the imported object.
//
// Facts are keyed by (analyzer, package path, object path) strings rather
// than by object identity: the loader type-checks root packages itself
// but resolves their dependencies through a source importer, so the same
// declaration is represented by distinct types.Object values on the two
// sides of an import. The string key is stable across both views.
//
// Composition is only as complete as the analyzed pattern set: facts for
// a package are computed when the analyzer visits it, so cross-package
// facts are fully populated when the suite runs over the whole module
// (what make lint does) and packages are visited in dependency order
// (what Runner guarantees).
type Facts struct {
	m map[string]bool
}

// NewFacts returns an empty fact store.
func NewFacts() *Facts { return &Facts{m: make(map[string]bool)} }

// key builds the stable fact key. Methods include their receiver type so
// (*Replica).send and a package function send cannot collide.
func (f *Facts) key(analyzer, fact string, obj types.Object) (string, bool) {
	if obj == nil || obj.Pkg() == nil {
		return "", false
	}
	name := obj.Name()
	if fn, ok := obj.(*types.Func); ok {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			recv := sig.Recv().Type()
			if p, ok := recv.(*types.Pointer); ok {
				recv = p.Elem()
			}
			if n, ok := recv.(*types.Named); ok {
				name = n.Obj().Name() + "." + name
			}
		}
	}
	return analyzer + "\x00" + obj.Pkg().Path() + "\x00" + fact + "\x00" + name, true
}

// export records a fact about obj.
func (f *Facts) export(analyzer, fact string, obj types.Object) {
	if k, ok := f.key(analyzer, fact, obj); ok {
		f.m[k] = true
	}
}

// has reports whether the fact was recorded for obj (under either view of
// its declaring package).
func (f *Facts) has(analyzer, fact string, obj types.Object) bool {
	k, ok := f.key(analyzer, fact, obj)
	return ok && f.m[k]
}

// ExportObjectFact records a named fact about an object declared in the
// package under analysis. Facts survive across packages within one
// Runner (or one Run/RunAll call chain sharing a fact store).
func (p *Pass) ExportObjectFact(obj types.Object, fact string) {
	p.facts.export(p.Analyzer.Name, fact, obj)
}

// HasObjectFact reports whether this analyzer exported the fact for obj —
// in this package or in an already-analyzed dependency.
func (p *Pass) HasObjectFact(obj types.Object, fact string) bool {
	return p.facts.has(p.Analyzer.Name, fact, obj)
}
