package dcm

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// apiAllowlist names the exported identifiers under internal/ that may stay
// without a caller outside tests, each with its reason. A key is
// "<package dir under internal/>.<Name>" for package-level declarations
// and "<package dir>.(<receiver>).<Name>" for methods.
var apiAllowlist = map[string]string{
	"graph.(*App).CorruptLedgerForTest":       "test hook: invariant tests corrupt the graph-wide ledger from another package",
	"graph.(*App).CorruptNodeInFlightForTest": "test hook: invariant tests corrupt one node's ledger from another package",
	"sim.(*Engine).SetHeapOnly":               "the heap reference tests run the engine without its timer wheel",
	"sim.(*Engine).SetEventLimit":             "benchmarks raise the runaway-event cap so b.N events fit in one run",
	"server.(*Server).DegradeFactor":          "chaos tests read a degrade fault's live factor on the victim server",
	"monitor.(*Fleet).Blackout":               "chaos tests read whether overlapping blackout faults keep monitoring dark",
	"trace.(*Trace).Scale":                    "experiments.ExampleRunScenario scales the bursty trace to half its users",
	"experiments.MultiSeedComparison":         "multi-seed harness the root benchmarks print and EXPERIMENTS.md reports",
	"experiments.RenderMultiSeed":             "renders the multi-seed harness's table for the root benchmarks",
	"policy.Load":                             "strict-JSON loader of a rule set, for the scenario document that will carry policies",
	"policy.(Rules).Marshal":                  "canonical JSON of a rule set, the inverse of policy.Load for the scenario document",
	"workload.LoadSpec":                       "strict-JSON loader of a workload spec, for the scenario document that will carry workloads",
}

// apiRoots are the directories whose non-test files count as callers.
// perfbench/ is its own module, but it imports this one's packages by
// their paths here, so it is type-checked as a caller like the rest.
var apiRoots = []string{".", "cmd", "examples", "internal", "perfbench"}

// stdlibCalled names the methods the standard library calls through its
// own interfaces (fmt, errors, encoding/json): they are live on any type.
var stdlibCalled = map[string]bool{
	"String": true, "Error": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
}

// TestExportedAPIIsReferenced fails for every exported func, method, type,
// const or var declared in a non-test file under internal/ that no non-test
// file of the repository uses outside the declaration itself. The check is
// type-checked with go/types, so it goes by object, not by name:
//   - a package-level declaration is live when some identifier resolves to
//     it; a method receiver naming its type does not count;
//   - a method is live when it is selected on its own receiver type
//     (directly, as a method value or expression, or promoted through an
//     embedded field), or when an interface method of the same name is
//     used and the method's type implements that interface;
//   - String, Error and the JSON and text marshal methods are live on any
//     type, because the standard library calls them.
//
// So a dead method that shares its name with a live one fails: a
// server.(*Server).TotalCompletions called only from tests would no longer
// pass because graph.(*App).TotalCompletions is live. Helpers only tests
// use belong in an export_test.go file. An allowlist entry that names
// nothing, or whose export has a caller, fails too, so the list cannot rot.
//
// Packages of this repository are parsed and checked here; the standard
// library comes from go/importer's "source" importer.
func TestExportedAPIIsReferenced(t *testing.T) {
	fset := token.NewFileSet()
	l := &apiLoader{
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil),
		dirs: map[string][]*ast.File{},
		pkgs: map[string]*apiPackage{},
	}
	for _, root := range apiRoots {
		if err := l.parseRoot(root); err != nil {
			t.Fatal(err)
		}
	}
	dirs := make([]string, 0, len(l.dirs))
	for dir := range l.dirs {
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)
	for _, dir := range dirs {
		if _, err := l.load(dir); err != nil {
			t.Fatal(err)
		}
	}

	// skip holds the positions of identifiers that are not uses: the type
	// named by a method receiver. spans maps each declaring identifier to
	// its whole declaration, inside which uses do not count.
	skip := map[token.Pos]bool{}
	spans := map[token.Pos][2]token.Pos{}
	for _, p := range l.pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					spans[d.Name.Pos()] = [2]token.Pos{d.Pos(), d.End()}
					if d.Recv != nil {
						ast.Inspect(d.Recv, func(n ast.Node) bool {
							if id, ok := n.(*ast.Ident); ok {
								skip[id.Pos()] = true
							}
							return true
						})
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							spans[s.Name.Pos()] = [2]token.Pos{s.Pos(), s.End()}
						case *ast.ValueSpec:
							for _, id := range s.Names {
								spans[id.Pos()] = [2]token.Pos{s.Pos(), s.End()}
							}
						}
					}
				}
			}
		}
	}

	// uses maps every object to the positions that use it; ifaceUsed
	// lists the interface methods used, whose implementations are live.
	uses := map[types.Object][]token.Pos{}
	var ifaceUsed []*types.Func
	for _, p := range l.pkgs {
		for id, obj := range p.info.Uses {
			if skip[id.Pos()] {
				continue
			}
			if fn, ok := obj.(*types.Func); ok {
				fn = fn.Origin()
				obj = fn
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
					ifaceUsed = append(ifaceUsed, fn)
				}
			}
			uses[obj] = append(uses[obj], id.Pos())
		}
	}
	usedOutside := func(obj types.Object) bool {
		span, ok := spans[obj.Pos()]
		for _, pos := range uses[obj] {
			if !ok || pos < span[0] || pos >= span[1] {
				return true
			}
		}
		return false
	}
	implemented := func(fn *types.Func, named *types.Named) bool {
		if named.TypeParams().Len() > 0 {
			// Implements is unspecified on an uninstantiated generic type;
			// a used interface method of the same name keeps it live.
			for _, m := range ifaceUsed {
				if m.Name() == fn.Name() {
					return true
				}
			}
			return false
		}
		ptr := types.NewPointer(named)
		for _, m := range ifaceUsed {
			if m.Name() != fn.Name() {
				continue
			}
			iface := m.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
			if types.Implements(named, iface) || types.Implements(ptr, iface) {
				return true
			}
		}
		return false
	}

	type exportedDecl struct {
		key, pos string
		live     bool
	}
	var decls []exportedDecl
	for _, dir := range dirs {
		if !strings.HasPrefix(dir, "internal/") {
			continue
		}
		pkg := strings.TrimPrefix(dir, "internal/")
		scope := l.pkgs[dir].types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() {
				decls = append(decls, exportedDecl{key: pkg + "." + name,
					pos: fset.Position(obj.Pos()).String(), live: usedOutside(obj)})
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if !m.Exported() || types.IsInterface(named) {
					continue
				}
				recv := tn.Name()
				if _, ptr := m.Type().(*types.Signature).Recv().Type().(*types.Pointer); ptr {
					recv = "*" + recv
				}
				decls = append(decls, exportedDecl{
					key:  fmt.Sprintf("%s.(%s).%s", pkg, recv, m.Name()),
					pos:  fset.Position(m.Pos()).String(),
					live: stdlibCalled[m.Name()] || usedOutside(m) || implemented(m, named),
				})
			}
		}
	}
	sort.Slice(decls, func(i, j int) bool { return decls[i].key < decls[j].key })

	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.key] = true
		reason, allowed := apiAllowlist[d.key]
		switch {
		case !d.live && !allowed:
			t.Errorf("%s: exported %s has no caller outside tests; delete it, unexport it, or allowlist it with a reason", d.pos, d.key)
		case d.live && allowed:
			t.Errorf("%s: allowlisted %s has a caller now; drop its allowlist entry (%q)", d.pos, d.key, reason)
		}
	}
	var stale []string
	for key, reason := range apiAllowlist {
		if !declared[key] {
			stale = append(stale, key)
		}
		if strings.TrimSpace(reason) == "" {
			t.Errorf("allowlist entry %s has no reason", key)
		}
	}
	sort.Strings(stale)
	for _, key := range stale {
		t.Errorf("allowlist entry %s names no exported declaration under internal/; drop it", key)
	}
}

// apiPackage is one type-checked package of this repository.
type apiPackage struct {
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// apiLoader type-checks this repository's packages from their non-test
// files, importing each other by "dcm/<dir>", so that every use resolves
// to the one object its declaration made.
type apiLoader struct {
	fset *token.FileSet
	std  types.Importer
	dirs map[string][]*ast.File // slash-separated dir -> parsed files
	pkgs map[string]*apiPackage // checked packages by dir
}

// parseRoot parses the non-test Go files under root ("." alone is not
// recursed), skipping testdata, hidden and underscore directories and
// files whose build constraints exclude them.
func (l *apiLoader) parseRoot(root string) error {
	recurse := root != "."
	return filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (!recurse || name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		dir := filepath.Dir(path)
		if ok, err := build.Default.MatchFile(dir, d.Name()); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(l.fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir = filepath.ToSlash(dir)
		l.dirs[dir] = append(l.dirs[dir], f)
		return nil
	})
}

// Import resolves "dcm" and "dcm/<dir>" to this repository's packages
// and everything else to the standard library.
func (l *apiLoader) Import(path string) (*types.Package, error) {
	if path == "dcm" {
		return l.load(".")
	}
	if dir, ok := strings.CutPrefix(path, "dcm/"); ok {
		return l.load(dir)
	}
	return l.std.Import(path)
}

// load type-checks the package in dir, once.
func (l *apiLoader) load(dir string) (*types.Package, error) {
	if p, ok := l.pkgs[dir]; ok {
		if p.types == nil {
			return nil, fmt.Errorf("import cycle through %s", dir)
		}
		return p.types, nil
	}
	files, ok := l.dirs[dir]
	if !ok {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	p := &apiPackage{files: files, info: &types.Info{Uses: map[*ast.Ident]types.Object{}}}
	l.pkgs[dir] = p
	path := "dcm"
	if dir != "." {
		path += "/" + dir
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, p.info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", path, err)
	}
	p.types = pkg
	return pkg, nil
}
