package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
)

func TestLaneGuard(t *testing.T) { runTestdata(t, LaneGuard) }

// TestLaneGuardCertifiesEngines is the certification the CI lint gate
// relies on: every engine package — all eight engine families (fm, l4,
// b4, ll4, T4, stp, sci, sll) — must have zero cross-lane touch points.
// laneguard gates a package because it declares an engine, so the test
// first checks that each engine type is detected: an engine silently
// dropping out of detection would make the zero-findings assertion
// vacuous.
func TestLaneGuardCertifiesEngines(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the module for export data")
	}
	want := map[string][]string{
		"dircc/internal/protocol/fullmap": {"Engine"},
		"dircc/internal/protocol/limited": {"Engine"},
		"dircc/internal/protocol/list":    {"SCI", "SLL"},
		"dircc/internal/core":             {"Engine", "STP"},
	}
	var paths []string
	for p := range want {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	pkgs, err := Load(paths...)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != len(want) {
		t.Fatalf("loaded %d packages, want %d", len(pkgs), len(want))
	}
	for _, pkg := range pkgs {
		la := newLaneAnalysis(pkg.Fset, pkg.Files, pkg.Types, pkg.Info)
		if got := la.engineNames(); !slices.Equal(got, want[pkg.ImportPath]) {
			t.Errorf("%s: laneguard detects engines %v, want %v", pkg.ImportPath, got, want[pkg.ImportPath])
		}
	}
	for _, d := range RunAnalyzers(pkgs, []*Analyzer{LaneGuard}) {
		t.Errorf("%s", d)
	}
}

// TestLaneGuardCatchesDirectChainWalkRevert reverts SCI's deferred
// successor resolution in memory: the ChainData handler calls
// e.successorHop directly on the requester's lane instead of hopping to
// the supplier's lane via m.DeferAt, so the walk reads the supplier's
// line and tombstone cross-lane. Laneguard must fail the mutated call
// site (successorHop's summarized residency requirement on `cur` no
// longer holds), and the unmutated tree must certify clean — proving
// the gate is specific to the bug, not an artifact of the
// neighbourhood.
func TestLaneGuardCatchesDirectChainWalkRevert(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the module for export data")
	}
	const (
		fixed   = "m.DeferAt(n, src, func() { e.successorHop(m, txn, chain, src, 0) })"
		mutated = "e.successorHop(m, txn, chain, src, 0)"
	)
	dir := filepath.Join("..", "protocol", "list")
	src, err := os.ReadFile(filepath.Join(dir, "sci.go"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(src), fixed) {
		t.Fatalf("sci.go no longer contains %q; update the mutant test", fixed)
	}

	findingsAt := func(code string) []string {
		t.Helper()
		fset := token.NewFileSet()
		var files []*ast.File
		names, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		mutLine := 0
		for _, name := range names {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			text, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			if filepath.Base(name) == "sci.go" {
				text = []byte(code)
				for i, l := range strings.Split(code, "\n") {
					if strings.Contains(l, "e.successorHop(m, txn, chain, src, 0)") {
						mutLine = i + 1
						break
					}
				}
			}
			f, err := parser.ParseFile(fset, name, text, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		if mutLine == 0 {
			t.Fatal("could not locate the successorHop call in sci.go")
		}
		imports := map[string]bool{}
		for _, f := range files {
			for _, spec := range f.Imports {
				imports[strings.Trim(spec.Path.Value, `"`)] = true
			}
		}
		var patterns []string
		for p := range imports {
			patterns = append(patterns, p)
		}
		entries, err := goList(true, patterns...)
		if err != nil {
			t.Fatal(err)
		}
		info := newInfo()
		conf := types.Config{Importer: exportImporter(fset, entries)}
		tpkg, err := conf.Check("dircc/internal/protocol/list", fset, files, info)
		if err != nil {
			t.Fatalf("typecheck mutated list package: %v", err)
		}
		pkg := &Package{ImportPath: tpkg.Path(), Dir: dir, Fset: fset, Files: files, Types: tpkg, Info: info}
		// The list package declares engines, so the gating analyzer
		// itself fires on the mutated call site.
		var out []string
		for _, d := range RunAnalyzers([]*Package{pkg}, []*Analyzer{LaneGuard}) {
			if filepath.Base(d.Pos.Filename) == "sci.go" && d.Pos.Line >= mutLine && d.Pos.Line <= mutLine+1 {
				out = append(out, d.Message)
			}
		}
		return out
	}

	// The mutant's direct call hands successorHop a message-carried
	// supplier index on the wrong lane; the summarized requirement
	// surfaces at the call site.
	carried := regexp.MustCompile(`call to successorHop: .* is not resident`)

	mutant := findingsAt(strings.Replace(string(src), fixed, mutated, 1))
	found := false
	for _, r := range mutant {
		if carried.MatchString(r) {
			found = true
		}
	}
	if !found {
		t.Errorf("reverting the deferred chain walk: no residency finding at the direct call; got %q", mutant)
	}

	clean := findingsAt(string(src))
	for _, r := range clean {
		t.Errorf("unmutated sci.go has a finding at the deferred hop: %q", r)
	}
}

// TestLaneGuardSkipsPackagesWithoutEngines: gating must not fire in a
// package that declares no engine, even if it writes Machine.Ctr and
// invalidates a message-carried node. The same source is gated as soon
// as its four-handler type gains the fifth handler, OnEvict.
func TestLaneGuardSkipsPackagesWithoutEngines(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the module for export data")
	}
	const src = `package p

import (
	"dircc/internal/cache"
	"dircc/internal/coherent"
)

type handlers struct{}

func (handlers) StartMiss(m *coherent.Machine, txn *coherent.Txn) { m.Ctr.Invalidations++ }
func (handlers) HomeRequest(m *coherent.Machine, msg *coherent.Msg) {
	m.Invalidate(msg.Requester, msg.Block)
}
func (handlers) HomeMsg(m *coherent.Machine, msg *coherent.Msg) {}
func (handlers) CacheMsg(m *coherent.Machine, msg *coherent.Msg) {}

var _ cache.Line
`
	const onEvict = "\nfunc (handlers) OnEvict(m *coherent.Machine, n coherent.NodeID, ln *cache.Line) {}\n"
	run := func(src string) []Diagnostic {
		t.Helper()
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		entries, err := goList(true, "dircc/internal/cache", "dircc/internal/coherent")
		if err != nil {
			t.Fatal(err)
		}
		info := newInfo()
		conf := types.Config{Importer: exportImporter(fset, entries)}
		tpkg, err := conf.Check("p", fset, []*ast.File{f}, info)
		if err != nil {
			t.Fatal(err)
		}
		pkg := &Package{ImportPath: "p", Dir: ".", Fset: fset, Files: []*ast.File{f}, Types: tpkg, Info: info}
		return RunAnalyzers([]*Package{pkg}, []*Analyzer{LaneGuard})
	}
	if diags := run(src); len(diags) != 0 {
		t.Errorf("unexpected findings in a package without an engine: %v", diags)
	}
	if diags := run(src + onEvict); len(diags) != 2 {
		t.Errorf("with OnEvict the package declares an engine: got %d findings, want the Ctr write and the invalidation: %v",
			len(diags), diags)
	}
}

// TestCFGShapes sanity-checks the basic-block builder on the control
// structures the engine handlers actually use.
func TestCFGShapes(t *testing.T) {
	cases := []struct {
		name string
		body string
	}{
		{"if-else", `if a { x() } else { y() }; z()`},
		{"for-break", `for i := 0; i < n; i++ { if a { break }; x() }`},
		{"range-continue", `for k := range m { if k == 0 { continue }; x() }`},
		{"switch", `switch a { case true: x()
default:
	y()
}`},
		{"labeled", `outer:
for {
	for {
		break outer
	}
}`},
		{"return-mid", `if a { return }; x()`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			src := fmt.Sprintf(`package p
var (
	a bool
	n int
	m map[int]int
)
func x() {}
func y() {}
func z() {}
func f() {
	%s
}`, c.body)
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, "p.go", src, 0)
			if err != nil {
				t.Fatal(err)
			}
			var body *ast.BlockStmt
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == "f" {
					body = fd.Body
				}
			}
			g := buildCFG(body)
			if g.Entry == nil || g.Exit == nil || len(g.Blocks) < 2 {
				t.Fatalf("degenerate CFG: %+v", g)
			}
			// Every block must be reachable from entry or be a
			// deliberately detached unreachable-code block; walking from
			// the entry must terminate (no unlinked dangling edges).
			seen := map[*Block]bool{}
			var walk func(b *Block)
			walk = func(b *Block) {
				if seen[b] {
					return
				}
				seen[b] = true
				for _, s := range b.Succs {
					walk(s)
				}
			}
			walk(g.Entry)
			if !seen[g.Exit] && c.name != "labeled" {
				t.Errorf("exit unreachable from entry")
			}
		})
	}
}
