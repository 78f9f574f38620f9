// Package lint is a small static-analysis framework in the style of
// go/analysis, self-contained so the repository's custom analyzers run
// with the standard library alone (the container building this repo
// has no module proxy). cmd/dirccvet is the multichecker driver.
//
// The analyzers encode simulator-specific correctness rules that the
// compiler cannot check:
//
//   - simdet: simulation results must be deterministic, so simulation
//     code must not consult the global math/rand source or the wall
//     clock.
//   - maprange: Go map iteration order is random, so a map range loop
//     must not directly feed the event kernel, the network, or a
//     report/trace writer.
//   - probeguard: the observability layer is a nil *obs.Probe when
//     disabled, so probe method calls must be guarded by a nil check.
//   - laneguard: the parallel kernel partitions nodes across lanes, so
//     in every package that declares a protocol engine, handler code
//     must not reach into another node's per-node state with a
//     directory-, chain- or message-derived index outside the
//     scheduling façade (a dataflow analysis: cfg.go, dataflow.go,
//     laneguard.go), and no code may mutate Machine.Ctr — handlers
//     count through the per-lane sink m.CtrAt.
//
// The sequential kernel behind the façade is an unexported Machine
// field, so the compiler already keeps code outside internal/coherent
// from scheduling around it.
//
// A finding can be suppressed by a `//dirccvet:allow <analyzer> reason`
// comment on the same line or the line above. The reason is mandatory,
// and an allowance that suppresses nothing is itself reported (analyzer
// name "allowcheck") so stale suppressions cannot rot in place.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named check.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Pass is the per-package invocation of one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags []Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one reported finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// allowCheckName is the pseudo-analyzer that reports defective or stale
// //dirccvet:allow comments. It is not itself suppressible.
const allowCheckName = "allowcheck"

// All returns the full analyzer suite, in reporting order.
func All() []*Analyzer {
	return []*Analyzer{SimDet, MapRange, ProbeGuard, LaneGuard}
}

// RunAnalyzers applies the analyzers to every package, drops findings
// suppressed by //dirccvet:allow comments, and returns the rest sorted
// by position. Extra diagnostics produced outside the Analyzer
// interface (e.g. allocguard, which shells out to the compiler) may be
// passed in; they go through the same suppression and stale-allow
// accounting, keyed by their Analyzer name.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer, extra ...Diagnostic) []Diagnostic {
	active := map[string]bool{}
	for _, a := range analyzers {
		active[a.Name] = true
	}
	for _, d := range extra {
		active[d.Analyzer] = true
	}
	var out []Diagnostic
	claimed := map[string]bool{} // extra-diag files owned by some package
	for _, pkg := range pkgs {
		files := map[string]bool{}
		for _, f := range pkg.Files {
			files[pkg.Fset.Position(f.Pos()).Filename] = true
		}
		allow := collectAllows(pkg.Fset, pkg.Files)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
			}
			a.Run(pass)
			for _, d := range pass.diags {
				if allow.suppressed(d) {
					continue
				}
				out = append(out, d)
			}
		}
		for _, d := range extra {
			if !files[d.Pos.Filename] {
				continue
			}
			claimed[d.Pos.Filename] = true
			if allow.suppressed(d) {
				continue
			}
			out = append(out, d)
		}
		out = append(out, allow.selfLint(active)...)
	}
	// Extra diagnostics in files not covered by any loaded package
	// (nothing to suppress them with) pass through unchanged.
	for _, d := range extra {
		if !claimed[d.Pos.Filename] {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

// allowRule is one //dirccvet:allow comment.
type allowRule struct {
	pos    token.Position
	names  []string
	reason string
	used   map[string]bool // analyzer name -> suppressed at least one finding
}

// allowSet maps file -> line -> analyzer name -> rule; each rule covers
// two lines (its own and the one below), pointing at the same struct so
// usage is tracked once.
type allowSet map[string]map[int]map[string]*allowRule

// collectAllows gathers `//dirccvet:allow name[,name] reason` comments.
// An allowance covers findings on its own line and on the line below
// (for a comment placed above the offending statement).
func collectAllows(fset *token.FileSet, files []*ast.File) allowSet {
	set := make(allowSet)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//dirccvet:allow")
				if !ok {
					continue
				}
				fields := strings.Fields(text)
				if len(fields) == 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				rule := &allowRule{
					pos:    pos,
					names:  strings.Split(fields[0], ","),
					reason: strings.Join(fields[1:], " "),
					used:   map[string]bool{},
				}
				lines := set[pos.Filename]
				if lines == nil {
					lines = make(map[int]map[string]*allowRule)
					set[pos.Filename] = lines
				}
				for _, name := range rule.names {
					for _, ln := range []int{pos.Line, pos.Line + 1} {
						if lines[ln] == nil {
							lines[ln] = make(map[string]*allowRule)
						}
						lines[ln][name] = rule
					}
				}
			}
		}
	}
	return set
}

func (s allowSet) suppressed(d Diagnostic) bool {
	rule := s[d.Pos.Filename][d.Pos.Line][d.Analyzer]
	if rule == nil {
		return false
	}
	rule.used[d.Analyzer] = true
	return true
}

// selfLint reports defective allow comments: a missing reason string,
// and any named analyzer in the active set that suppressed nothing
// (a stale allowance that would silently mask future regressions).
func (s allowSet) selfLint(active map[string]bool) []Diagnostic {
	seen := map[*allowRule]bool{}
	var out []Diagnostic
	for _, lines := range s {
		for _, rules := range lines {
			for _, rule := range rules {
				if seen[rule] {
					continue
				}
				seen[rule] = true
				if rule.reason == "" {
					out = append(out, Diagnostic{
						Pos:      rule.pos,
						Analyzer: allowCheckName,
						Message:  "dirccvet:allow needs a justification after the analyzer list",
					})
				}
				for _, name := range rule.names {
					if active[name] && !rule.used[name] {
						out = append(out, Diagnostic{
							Pos:      rule.pos,
							Analyzer: allowCheckName,
							Message:  fmt.Sprintf("stale dirccvet:allow: %q suppresses no finding here; delete it", name),
						})
					}
				}
			}
		}
	}
	return out
}
