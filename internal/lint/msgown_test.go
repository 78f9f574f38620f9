package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestMsgOwn(t *testing.T) { runTestdata(t, MsgOwn) }

// TestMsgOwnCatchesMutants reverts, one at a time and in memory, three
// places where an engine used to keep a delivered message record past
// its handler. Each mutant must give a msgown finding on a mutated
// line, and the unmutated package none.
func TestMsgOwnCatchesMutants(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the module for export data")
	}
	cases := []struct {
		name, dir, pkg, file string
		edits                [][2]string // old, new; each old must occur
	}{
		{
			// fullmap's pending request held as the delivered pointer.
			name: "fullmap pending.req", dir: "../protocol/fullmap", pkg: "dircc/internal/protocol/fullmap", file: "fullmap.go",
			edits: [][2]string{
				{"req      coherent.Msg", "req      *coherent.Msg"},
				{"{req: *msg,", "{req: msg,"},
				{"e.grantWrite(m, msg.Dst, en, &en.pend.req)", "e.grantWrite(m, msg.Dst, en, en.pend.req)"},
				{"&p.req", "p.req"},
			},
		},
		{
			// SCI's ChainData handler capturing the record in DeferAt.
			name: "sci chain capture", dir: "../protocol/list", pkg: "dircc/internal/protocol/list", file: "sci.go",
			edits: [][2]string{
				{"data, src := msg.Data, msg.Src", "chain, src := msg, msg.Src"},
				{"e.successorHop(m, txn, data, src, 0)", "e.successorHop(m, txn, chain.Data, src, 0)"},
			},
		},
		{
			// forest deferring an Inv by appending the record itself.
			name: "forest Deferred append", dir: "../core", pkg: "dircc/internal/core", file: "forest.go",
			edits: [][2]string{
				{"m.DeferToTxn(n, msg)", "txn.Deferred = append(txn.Deferred, msg)"},
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := filepath.FromSlash(c.dir)
			src, err := os.ReadFile(filepath.Join(dir, c.file))
			if err != nil {
				t.Fatal(err)
			}
			mutated := string(src)
			for _, e := range c.edits {
				if !strings.Contains(mutated, e[0]) {
					t.Fatalf("%s no longer contains %q; update the mutant", c.file, e[0])
				}
				mutated = strings.ReplaceAll(mutated, e[0], e[1])
			}
			lines := map[int]bool{}
			for i, l := range strings.Split(mutated, "\n") {
				for _, e := range c.edits {
					if strings.Contains(l, e[1]) {
						lines[i+1] = true
					}
				}
			}
			if n := len(mutantFindings(t, dir, c.pkg, c.file, mutated, lines)); n == 0 {
				t.Errorf("mutant %q: no msgown finding on a mutated line", c.name)
			}
			for _, d := range mutantFindings(t, dir, c.pkg, c.file, string(src), nil) {
				t.Errorf("unmutated %s: %s", c.file, d)
			}
		})
	}
}

// mutantFindings typechecks the package in dir with file's text
// replaced by text and returns msgown's findings in that file, on the
// given lines (every line when lines is nil).
func mutantFindings(t *testing.T, dir, pkgPath, file, text string, lines map[int]bool) []Diagnostic {
	t.Helper()
	fset := token.NewFileSet()
	var files []*ast.File
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	imports := map[string]bool{}
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		var body any
		if filepath.Base(name) == file {
			body = text
		}
		f, err := parser.ParseFile(fset, name, body, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
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
	tpkg, err := conf.Check(pkgPath, fset, files, info)
	if err != nil {
		t.Fatalf("typecheck %s: %v", pkgPath, err)
	}
	pkg := &Package{ImportPath: pkgPath, Dir: dir, Fset: fset, Files: files, Types: tpkg, Info: info}
	var out []Diagnostic
	for _, d := range RunAnalyzers([]*Package{pkg}, []*Analyzer{MsgOwn}) {
		if filepath.Base(d.Pos.Filename) == file && (lines == nil || lines[d.Pos.Line]) {
			out = append(out, d)
		}
	}
	return out
}
