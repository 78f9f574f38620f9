package lint

// allocguard turns the hot-path zero-allocation invariant into a static
// gate. Functions on the simulator's per-event hot path (the kernel
// event loop, the sharded intra-wave drain, network Send, the coherence
// machine's message, transaction and hit events, the tree and full-map
// engines' handler paths) are annotated with a `//dirccvet:hotpath`
// directive in their doc comment; allocguard
// runs the compiler's escape analysis (`go build -gcflags=-m=2`) over
// the packages containing annotated functions and reports every
// "escapes to heap" / "moved to heap" diagnostic that lands inside an
// annotated function's body. Unlike the alloc benchmarks (which only
// catch a regression when the right benchmark runs), this names the
// offending line at compile time.
//
// A known, deliberate allocation (e.g. a free list growing a record
// only while more of them are live than ever before) is suppressed the
// usual way:
//
//	//dirccvet:allow allocguard a node allocates a transaction only while more of its misses are in flight than ever before
//
// The returned diagnostics flow through RunAnalyzers' suppression and
// stale-allow accounting like any other analyzer's.

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/token"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

func positionAt(file string, line, col int) token.Position {
	return token.Position{Filename: file, Line: line, Column: col}
}

// AllocGuardName is the analyzer name allocguard diagnostics carry
// (used in //dirccvet:allow lists).
const AllocGuardName = "allocguard"

// hotpathDirective marks a function whose body must not heap-allocate.
const hotpathDirective = "//dirccvet:hotpath"

type hotpathFunc struct {
	name       string
	file       string // absolute path
	start, end int    // line range of the declaration
}

func hotpathFuncs(pkg *Package) []hotpathFunc {
	var out []hotpathFunc
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			marked := false
			for _, c := range fd.Doc.List {
				if strings.HasPrefix(strings.TrimSpace(c.Text), hotpathDirective) {
					marked = true
					break
				}
			}
			if !marked {
				continue
			}
			start := pkg.Fset.Position(fd.Pos())
			end := pkg.Fset.Position(fd.End())
			name := fd.Name.Name
			if fd.Recv != nil && len(fd.Recv.List) == 1 {
				if tn := recvTypeName(fd.Recv.List[0].Type); tn != "" {
					name = tn + "." + name
				}
			}
			out = append(out, hotpathFunc{
				name:  name,
				file:  start.Filename,
				start: start.Line,
				end:   end.Line,
			})
		}
	}
	return out
}

// escapeLine matches one compiler escape-analysis diagnostic:
// "path/file.go:12:6: message". Flow-explanation lines from -m=2 also
// match the shape but are filtered by message content below.
var escapeLine = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): (.+)$`)

// RunAllocGuard builds the packages that contain //dirccvet:hotpath
// annotations with escape analysis enabled and returns one diagnostic
// per heap escape inside an annotated function. The returned
// diagnostics are NOT yet filtered by //dirccvet:allow — pass them to
// RunAnalyzers as extra diagnostics for that.
func RunAllocGuard(pkgs []*Package) ([]Diagnostic, int, error) {
	byFile := map[string][]hotpathFunc{}
	pathSet := map[string]bool{}
	total := 0
	for _, pkg := range pkgs {
		hfs := hotpathFuncs(pkg)
		if len(hfs) == 0 {
			continue
		}
		total += len(hfs)
		pathSet[pkg.ImportPath] = true
		for _, hf := range hfs {
			byFile[hf.file] = append(byFile[hf.file], hf)
		}
	}
	if len(pathSet) == 0 {
		return nil, 0, nil
	}
	var paths []string
	for p := range pathSet {
		paths = append(paths, p)
	}
	sort.Strings(paths)

	root, err := moduleRoot()
	if err != nil {
		return nil, total, err
	}
	args := append([]string{"build", "-gcflags=-m=2"}, paths...)
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, total, fmt.Errorf("allocguard: go build failed: %v\n%s", err, stderr.String())
	}

	var out []Diagnostic
	for _, line := range strings.Split(stderr.String(), "\n") {
		m := escapeLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		msg := m[4]
		if !strings.Contains(msg, "escapes to heap") && !strings.Contains(msg, "moved to heap") {
			continue
		}
		if strings.Contains(msg, "does not escape") {
			continue
		}
		// A constant string escaping into an interface (panic("...")) is
		// static data, not a runtime allocation; ignore it.
		if strings.HasPrefix(msg, `"`) {
			continue
		}
		file := m[1]
		if !filepath.IsAbs(file) {
			file = filepath.Join(root, file)
		}
		lineNo := atoiSafe(m[2])
		for _, hf := range byFile[file] {
			if lineNo < hf.start || lineNo > hf.end {
				continue
			}
			out = append(out, Diagnostic{
				Pos:      positionAt(file, lineNo, atoiSafe(m[3])),
				Analyzer: AllocGuardName,
				Message: fmt.Sprintf("hotpath %s allocates: %s", hf.name,
					strings.TrimSuffix(msg, ":")),
			})
			break
		}
	}
	return out, total, nil
}

func moduleRoot() (string, error) {
	cmd := exec.Command("go", "list", "-m", "-f", "{{.Dir}}")
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("allocguard: go list -m: %v\n%s", err, stderr.String())
	}
	return strings.TrimSpace(stdout.String()), nil
}

func atoiSafe(s string) int {
	n := 0
	for _, c := range s {
		if c < '0' || c > '9' {
			return 0
		}
		n = n*10 + int(c-'0')
	}
	return n
}
