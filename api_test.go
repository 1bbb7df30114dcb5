package dcm

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// apiAllowlist names the exported identifiers under internal/ that may stay
// without a by-name reference from non-test code, each with its reason. A
// key is "<package dir under internal/>.<Name>" for package-level
// declarations and "<package dir>.(<receiver>).<Name>" for methods.
var apiAllowlist = map[string]string{
	"chaos.(*Fault).UnmarshalJSON":            "encoding/json calls it to decode a fault's duration strings",
	"chaos.(Fault).MarshalJSON":               "encoding/json calls it to encode a fault's duration strings",
	"graph.(*App).CorruptLedgerForTest":       "test hook: invariant tests corrupt the graph-wide ledger from another package",
	"graph.(*App).CorruptNodeInFlightForTest": "test hook: invariant tests corrupt one node's ledger from another package",
	"sim.(*Engine).SetHeapOnly":               "the heap reference tests run the engine without its timer wheel",
	"sim.(*Engine).SetEventLimit":             "benchmarks raise the runaway-event cap so b.N events fit in one run",
	"server.BasisActive":                      "zero value of server.Basis; configs select it by leaving the field unset",
	"server.(*Server).DegradeFactor":          "chaos tests read a degrade fault's live factor on the victim server",
	"monitor.(*Fleet).Blackout":               "chaos tests read whether overlapping blackout faults keep monitoring dark",
	"trace.(*Trace).Scale":                    "experiments.ExampleRunScenario scales the bursty trace to half its users",
	"experiments.MultiSeedComparison":         "multi-seed harness the root benchmarks print and EXPERIMENTS.md reports",
	"experiments.RenderMultiSeed":             "renders the multi-seed harness's table for the root benchmarks",
}

// apiRoots are the directories whose non-test files count as callers.
var apiRoots = []string{".", "cmd", "examples", "internal", "perfbench"}

// exportedDecl is one package-level exported declaration under internal/.
type exportedDecl struct {
	key  string   // allowlist key
	name string   // the identifier callers write
	pos  string   // file:line of the declaring identifier
	node ast.Node // the whole declaration; names inside it are not callers
}

// TestExportedAPIIsReferenced fails for every exported func, method, type,
// const or var declared in a non-test file under internal/ whose name no
// non-test file of the repository mentions outside the declaration itself.
// The check goes by name, not by receiver: any mention of the name counts,
// so a dead method that shares its name with a live identifier passes. A
// server.(*Server).TotalCompletions called only from tests passed this way,
// because graph.(*App).TotalCompletions is live, and a test-only export that
// another test-only export forwards to passes through that mention. Such
// helpers belong in an export_test.go file. An allowlist entry that names
// nothing, or whose export has a caller, fails too, so the list cannot rot.
func TestExportedAPIIsReferenced(t *testing.T) {
	fset := token.NewFileSet()
	var files []*ast.File
	var paths []string
	for _, root := range apiRoots {
		recurse := root != "."
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
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
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			files = append(files, f)
			paths = append(paths, path)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	var decls []exportedDecl
	for i, f := range files {
		dir := filepath.ToSlash(filepath.Dir(paths[i]))
		if !strings.HasPrefix(dir, "internal/") {
			continue
		}
		pkg := strings.TrimPrefix(dir, "internal/")
		add := func(key string, id *ast.Ident, node ast.Node) {
			p := fset.Position(id.Pos())
			decls = append(decls, exportedDecl{key: key, name: id.Name,
				pos: p.Filename + ":" + strconv.Itoa(p.Line), node: node})
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv == nil {
					add(pkg+"."+d.Name.Name, d.Name, d)
				} else {
					add(pkg+".("+recvName(d.Recv.List[0].Type)+")."+d.Name.Name, d.Name, d)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							add(pkg+"."+s.Name.Name, s.Name, s)
						}
					case *ast.ValueSpec:
						for _, id := range s.Names {
							if id.IsExported() {
								add(pkg+"."+id.Name, id, s)
							}
						}
					}
				}
			}
		}
	}

	// uses counts every identifier by name across the non-test files. A
	// method's receiver type is not a use of that type.
	uses := map[string]int{}
	for _, f := range files {
		countIdents(f, uses)
	}

	for _, d := range decls {
		own := map[string]int{}
		countIdents(d.node, own)
		live := uses[d.name]-own[d.name] > 0
		reason, allowed := apiAllowlist[d.key]
		switch {
		case !live && !allowed:
			t.Errorf("%s: exported %s has no caller outside tests; delete it, unexport it, or allowlist it with a reason", d.pos, d.key)
		case live && allowed:
			t.Errorf("%s: allowlisted %s has a caller now; drop its allowlist entry (%q)", d.pos, d.key, reason)
		}
	}

	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.key] = true
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

// countIdents adds every identifier under n to counts, skipping method
// receiver types.
func countIdents(n ast.Node, counts map[string]int) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			// Walk the declaration without its receiver list.
			countIdents(n.Name, counts)
			countIdents(n.Type, counts)
			if n.Body != nil {
				countIdents(n.Body, counts)
			}
			return false
		case *ast.Ident:
			counts[n.Name]++
		}
		return true
	})
}

// recvName renders a receiver type as "*T" or "T", dropping type parameters.
func recvName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return "*" + recvName(e.X)
	case *ast.IndexExpr:
		return recvName(e.X)
	case *ast.IndexListExpr:
		return recvName(e.X)
	case *ast.Ident:
		return e.Name
	}
	return "?"
}
