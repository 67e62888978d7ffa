package analysis

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package ready for analysis.
type Package struct {
	Path      string
	Dir       string
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// Loader parses and type-checks packages. All packages loaded through one
// Loader share a FileSet and an importer, so dependencies (including other
// packages in this module) are type-checked once from source. The source
// importer resolves import paths through the go command, so module-local
// paths like bftfast/internal/proc work without export data.
type Loader struct {
	fset *token.FileSet
	imp  types.Importer
}

// NewLoader returns a fresh loader.
func NewLoader() *Loader {
	fset := token.NewFileSet()
	return &Loader{fset: fset, imp: importer.ForCompiler(fset, "source", nil)}
}

// ListedPackage is the subset of `go list -json` output the loader (and
// the bft-vet driver's package-set check) needs.
type ListedPackage struct {
	Dir        string
	ImportPath string
	GoFiles    []string
	Imports    []string
}

// List resolves go-list package patterns (./..., specific import paths)
// to directories and file lists without building anything.
func List(patterns ...string) ([]ListedPackage, error) {
	args := append([]string{"list", "-json"}, patterns...)
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			return nil, fmt.Errorf("go list %s: %v: %s", strings.Join(patterns, " "), err, ee.Stderr)
		}
		return nil, fmt.Errorf("go list %s: %v", strings.Join(patterns, " "), err)
	}
	var pkgs []ListedPackage
	dec := json.NewDecoder(strings.NewReader(string(out)))
	for dec.More() {
		var p ListedPackage
		if err := dec.Decode(&p); err != nil {
			return nil, fmt.Errorf("decoding go list output: %w", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// LoadListed loads the given already-listed packages in dependency order
// (a package's listed imports precede it), so that analyzers composing
// through object facts see a dependency's facts before its dependents.
// Test files are excluded: the determinism contract binds engine code,
// while tests drive engines from goroutines and wall clocks by design.
func (l *Loader) LoadListed(listed []ListedPackage) ([]*Package, error) {
	listed = sortByDeps(listed)
	pkgs := make([]*Package, 0, len(listed))
	for _, lp := range listed {
		if len(lp.GoFiles) == 0 {
			continue
		}
		files := make([]string, len(lp.GoFiles))
		for i, f := range lp.GoFiles {
			files[i] = filepath.Join(lp.Dir, f)
		}
		pkg, err := l.load(lp.ImportPath, lp.Dir, files)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// ModuleRoot returns the directory of the main module, the base against
// which Analyzer.Seeds directories resolve.
func ModuleRoot() (string, error) {
	out, err := exec.Command("go", "list", "-m", "-f", "{{.Dir}}").Output()
	if err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			return "", fmt.Errorf("go list -m: %v: %s", err, ee.Stderr)
		}
		return "", fmt.Errorf("go list -m: %v", err)
	}
	return strings.TrimSpace(string(out)), nil
}

// sortByDeps orders packages so that every package follows the packages
// it imports (restricted to the listed set). Ties keep go list's
// lexical order for stable output.
func sortByDeps(listed []ListedPackage) []ListedPackage {
	index := make(map[string]int, len(listed))
	for i, lp := range listed {
		index[lp.ImportPath] = i
	}
	state := make([]int, len(listed)) // 0 unvisited, 1 visiting, 2 done
	out := make([]ListedPackage, 0, len(listed))
	var visit func(i int)
	visit = func(i int) {
		if state[i] != 0 {
			return // done, or a cycle (go/build rejects those anyway)
		}
		state[i] = 1
		for _, imp := range listed[i].Imports {
			if j, ok := index[imp]; ok {
				visit(j)
			}
		}
		state[i] = 2
		out = append(out, listed[i])
	}
	for i := range listed {
		visit(i)
	}
	return out
}

// LoadDir loads the single package in dir under the given import path,
// ignoring _test.go files. The import path controls path-sensitive
// analyzers (detcheck's engine-package set), which is what lets testdata
// packages impersonate engine packages.
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	var files []string
	for _, m := range matches {
		if strings.HasSuffix(m, "_test.go") {
			continue
		}
		files = append(files, m)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	sort.Strings(files)
	return l.load(importPath, dir, files)
}

// load parses and type-checks one package from explicit file paths.
func (l *Loader) load(importPath, dir string, filenames []string) (*Package, error) {
	var files []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(l.fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %w", name, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: l.imp}
	tpkg, err := conf.Check(importPath, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", importPath, err)
	}
	return &Package{
		Path:      importPath,
		Dir:       dir,
		Fset:      l.fset,
		Files:     files,
		Types:     tpkg,
		TypesInfo: info,
	}, nil
}
