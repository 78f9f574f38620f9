package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The testdata harness mirrors go/analysis's analysistest: each
// analyzer has a testdata/<name> package whose files carry
// `// want "regex"` comments on the lines where a finding is expected.
// The harness runs the analyzer and diffs findings against
// expectations in both directions.

var wantRx = regexp.MustCompile("want `([^`]*)`")

func runTestdata(t *testing.T, a *Analyzer) {
	t.Helper()
	dir := filepath.Join("testdata", a.Name)
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no testdata under %s: %v", dir, err)
	}
	sort.Strings(names)

	fset := token.NewFileSet()
	var files []*ast.File
	imports := map[string]bool{}
	for _, name := range names {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
		for _, spec := range f.Imports {
			path, _ := strconv.Unquote(spec.Path.Value)
			imports[path] = true
		}
	}

	// Resolve the fixture's imports through the real build system.
	patterns := make([]string, 0, len(imports))
	for p := range imports {
		patterns = append(patterns, p)
	}
	sort.Strings(patterns)
	var imp types.Importer
	if len(patterns) > 0 {
		entries, err := goList(true, patterns...)
		if err != nil {
			t.Fatal(err)
		}
		imp = exportImporter(fset, entries)
	}
	info := newInfo()
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check("dircc/internal/lint/"+dir, fset, files, info)
	if err != nil {
		t.Fatalf("typecheck %s: %v", dir, err)
	}

	pkg := &Package{ImportPath: tpkg.Path(), Dir: dir, Fset: fset, Files: files, Types: tpkg, Info: info}
	diags := RunAnalyzers([]*Package{pkg}, []*Analyzer{a})

	type key struct {
		file string
		line int
	}
	got := map[key][]string{}
	for _, d := range diags {
		k := key{filepath.Base(d.Pos.Filename), d.Pos.Line}
		got[k] = append(got[k], d.Message)
	}
	want := map[key][]*regexp.Regexp{}
	for i, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, m := range wantRx.FindAllStringSubmatch(c.Text, -1) {
					rx, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("bad want pattern %q: %v", m[1], err)
					}
					pos := fset.Position(c.Pos())
					k := key{filepath.Base(names[i]), pos.Line}
					want[k] = append(want[k], rx)
				}
			}
		}
	}

	for k, rxs := range want {
		msgs := got[k]
		for _, rx := range rxs {
			matched := false
			for _, msg := range msgs {
				if rx.MatchString(msg) {
					matched = true
					break
				}
			}
			if !matched {
				t.Errorf("%s:%d: expected finding matching %q, got %v", k.file, k.line, rx, msgs)
			}
		}
	}
	for k, msgs := range got {
		if len(want[k]) == 0 {
			t.Errorf("%s:%d: unexpected finding(s): %v", k.file, k.line, msgs)
		}
	}
}

func TestSimDet(t *testing.T)     { runTestdata(t, SimDet) }
func TestMapRange(t *testing.T)   { runTestdata(t, MapRange) }
func TestProbeGuard(t *testing.T) { runTestdata(t, ProbeGuard) }

// TestSelf runs the full suite over the repository itself: the tree
// must stay dirccvet-clean (the CI lint job enforces the same).
func TestSelf(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the whole module for export data")
	}
	pkgs, err := Load("dircc/...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("expected the whole module, loaded %d packages", len(pkgs))
	}
	for _, d := range RunAnalyzers(pkgs, All()) {
		t.Errorf("%s", d)
	}
}

// TestAllowSuppression checks the //dirccvet:allow comment forms
// directly: same line, line above, multiple analyzers, wrong name.
func TestAllowSuppression(t *testing.T) {
	fset := token.NewFileSet()
	src := `package p
// ordinary comment
//dirccvet:allow simdet justified: host-side timing
var a = 1
var b = 2 //dirccvet:allow simdet,maprange seeded fixture rand, never in simulation
var c = 3
`
	f, err := parser.ParseFile(fset, "allow.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	allow := collectAllows(fset, []*ast.File{f})
	cases := []struct {
		line     int
		analyzer string
		want     bool
	}{
		{4, "simdet", true},      // line below the comment
		{3, "simdet", true},      // the comment's own line
		{5, "simdet", true},      // trailing same-line comment
		{5, "maprange", true},    // second analyzer in the list
		{5, "probeguard", false}, // analyzer not named in the comment
		{6, "simdet", true},      // documented: an allowance always covers the next line too
		{7, "simdet", false},     // two lines below is out of range
	}
	for _, c := range cases {
		d := Diagnostic{Pos: token.Position{Filename: "allow.go", Line: c.line}, Analyzer: c.analyzer}
		if got := allow.suppressed(d); got != c.want {
			t.Errorf("line %d analyzer %s: suppressed=%v, want %v", c.line, c.analyzer, got, c.want)
		}
	}
}

// TestAllowSelfLint checks that defective allow comments are themselves
// reported: a missing reason, and a named analyzer that suppresses
// nothing. Analyzers outside the active set are not judged (allocguard
// allows must not go "stale" on runs with -alloc=false).
func TestAllowSelfLint(t *testing.T) {
	fset := token.NewFileSet()
	src := `package p
//dirccvet:allow simdet
var a = 1
//dirccvet:allow maprange the range feeds a sorted slice first
var b = 2
//dirccvet:allow probeguard probes are nil-checked by the caller
var c = 3
//dirccvet:allow allocguard one closure per message
var d = 4
`
	f, err := parser.ParseFile(fset, "allow.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	allow := collectAllows(fset, []*ast.File{f})
	// Only the maprange allowance earns its keep.
	allow.suppressed(Diagnostic{Pos: token.Position{Filename: "allow.go", Line: 5}, Analyzer: "maprange"})
	active := map[string]bool{"simdet": true, "maprange": true, "probeguard": true}

	byLine := map[int][]string{}
	for _, d := range allow.selfLint(active) {
		if d.Analyzer != allowCheckName {
			t.Errorf("self-lint finding with analyzer %q, want %q", d.Analyzer, allowCheckName)
		}
		byLine[d.Pos.Line] = append(byLine[d.Pos.Line], d.Message)
	}

	expectContains := func(line int, frag string) {
		t.Helper()
		for _, m := range byLine[line] {
			if strings.Contains(m, frag) {
				return
			}
		}
		t.Errorf("line %d: no self-lint finding containing %q; got %v", line, frag, byLine[line])
	}
	expectContains(2, "needs a justification")
	expectContains(2, `"simdet" suppresses no finding`)
	expectContains(6, `"probeguard" suppresses no finding`)
	if len(byLine[4]) != 0 {
		t.Errorf("used allowance flagged: %v", byLine[4])
	}
	if len(byLine[8]) != 0 {
		t.Errorf("inactive-analyzer allowance flagged: %v", byLine[8])
	}
}
