// Package analysis is a small static-analysis framework in the style of
// golang.org/x/tools/go/analysis, built on the standard library only (the
// module is dependency-free by design). It exists to enforce the repo's
// machine-checkable contracts mechanically:
//
//   - detcheck:  engine packages take all time from Env.Now and all
//     randomness from injected sources — no time.Now/Sleep/After, no
//     global math/rand, no go statements, no sync/sync-atomic;
//   - bufretain: a []byte passed to Env.Send/Multicast or Network.Send
//     must not be mutated or retained afterwards;
//   - envescape: a proc.Env must not be stored in foreign structs or
//     captured by closures that cross an API boundary;
//   - timerkey:  SetTimer/CancelTimer keys must be compile-time constants
//     so timer-key collisions cannot be introduced dynamically;
//   - mapsend:   no map iteration may feed a send/broadcast or wire
//     encoding in an engine package — map order is nondeterministic;
//   - allocfree: functions annotated //bftvet:allocfree must avoid
//     allocation-forcing constructs outside guarded growth/error paths;
//   - hookgate:  obs.Recorder/Registry hooks read from struct fields must
//     be nil-gated (tracing off means a nil field, not a crash);
//   - macflow:   bytes arriving from the transport must pass a crypto
//     verification before they can reach replica state.
//
// Each analyzer implements Analyzer and runs over one type-checked package
// at a time. The cmd/bft-vet command applies the whole suite to `go list`
// package patterns; the analysistest subpackage runs a single analyzer
// over a seeded testdata package and checks `// want "re"` expectations.
//
// Passes compose across packages through named object facts (see Facts):
// an analyzer exports facts about declarations it has seen (for example
// "this function transitively sends") and queries them through imports
// when analyzing downstream packages. The Runner visits packages in the
// order given — dependency order, which Loader.LoadListed guarantees —
// so facts are always populated before they are needed.
//
// # Suppressing a diagnostic
//
// A violation that is intentional (for example, a wall-clock timestamp in
// operator-facing log output) is silenced with a directive comment on the
// offending line or on the line directly above it:
//
//	//bftvet:allow logging only, never feeds protocol state
//	fmt.Printf("started at %v", time.Now())
//
// The reason text is mandatory: a bare //bftvet:allow is itself reported.
// When more than one pass can fire on a line, scope the directive so that
// silencing one pass cannot hide another's finding:
//
//	//bftvet:allow:mapsend order-independent idempotent acks
//	for p := range peers { ... }
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Seed names one seeded-violation testdata package for an analyzer: a
// directory (relative to the module root) and the import path to load it
// under. cmd/bft-vet's -selftest mode loads every analyzer's seed and
// fails unless the pass still fires on it, guarding against a pass that
// silently stops matching anything.
type Seed struct {
	Dir        string
	ImportPath string
}

// Analyzer is one static check. Run inspects a single package through the
// Pass and reports findings via Pass.Reportf.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and on the bft-vet
	// command line.
	Name string
	// Doc is a one-paragraph description (first line is the summary).
	Doc string
	// Run performs the check on one package.
	Run func(*Pass) error
	// Seeds are the analyzer's seeded-violation testdata packages, used
	// by bft-vet -selftest. Order matters when seeds depend on each
	// other's facts: dependencies come first.
	Seeds []Seed
}

// Pass carries one type-checked package through an analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	facts  *Facts
	report func(Diagnostic)
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// Reportf records a finding at pos unless a //bftvet:allow directive
// suppresses it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...), Analyzer: p.Analyzer.Name})
}

// Runner applies analyzers to a sequence of packages, carrying object
// facts across them. Packages must be presented in dependency order
// (dependencies before dependents) for cross-package facts to resolve;
// Loader.LoadListed returns packages in that order.
type Runner struct {
	facts *Facts
}

// NewRunner returns a Runner with an empty fact store.
func NewRunner() *Runner { return &Runner{facts: NewFacts()} }

// Run applies one analyzer to a loaded package and returns its surviving
// diagnostics (allow-directives already applied), sorted by position.
func (r *Runner) Run(a *Analyzer, pkg *Package) ([]Diagnostic, error) {
	allowed, bad := allowLines(pkg.Fset, pkg.Files)
	var diags []Diagnostic
	pass := &Pass{
		Analyzer:  a,
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.TypesInfo,
		facts:     r.facts,
		report: func(d Diagnostic) {
			if suppressed(pkg.Fset, d.Pos, a.Name, allowed) {
				return
			}
			diags = append(diags, d)
		},
	}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
	}
	// Malformed directives are reported through whichever analyzer runs;
	// the driver dedupes across the suite by position.
	for _, d := range bad {
		diags = append(diags, Diagnostic{Pos: d, Message: "bftvet:allow directive is missing a reason", Analyzer: a.Name})
	}
	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	return diags, nil
}

// RunAll applies a suite of analyzers to a package, deduplicating the
// malformed-directive diagnostics that every analyzer re-reports.
func (r *Runner) RunAll(analyzers []*Analyzer, pkg *Package) ([]Diagnostic, error) {
	var out []Diagnostic
	seen := make(map[string]bool)
	for _, a := range analyzers {
		diags, err := r.Run(a, pkg)
		if err != nil {
			return nil, err
		}
		for _, d := range diags {
			key := fmt.Sprintf("%v|%s", pkg.Fset.Position(d.Pos), d.Message)
			if seen[key] {
				continue
			}
			seen[key] = true
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	return out, nil
}

// Run applies one analyzer to one package with a fresh fact store (no
// cross-package composition). Single-package tests use this.
func Run(a *Analyzer, pkg *Package) ([]Diagnostic, error) {
	return NewRunner().Run(a, pkg)
}

// RunAll applies a suite to one package with a fresh fact store.
func RunAll(analyzers []*Analyzer, pkg *Package) ([]Diagnostic, error) {
	return NewRunner().RunAll(analyzers, pkg)
}
