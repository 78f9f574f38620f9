// Command dirccvet runs the repository's custom static analyzers
// (simdet, maprange, probeguard, laneguard, allocguard — see
// internal/lint) over the given package patterns, defaulting to ./... .
// It prints the findings that survive the //dirccvet:allow
// suppressions and exits 1 if there are any.
//
//	dirccvet [flags] [patterns]
//
// Flags:
//
//	-json         emit machine-readable JSON instead of text
//	-sarif FILE   additionally write gate findings as SARIF 2.1.0
//	              ("-" for stdout) for GitHub code scanning
//	-alloc=false  skip the allocguard escape-analysis pass (it shells
//	              out to `go build`; everything else is in-process)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"dircc/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit JSON output")
	sarifOut := flag.String("sarif", "", "write SARIF 2.1.0 findings to this file (\"-\" for stdout)")
	alloc := flag.Bool("alloc", true, "run the allocguard escape-analysis pass")
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load(patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dirccvet:", err)
		os.Exit(2)
	}

	var extra []lint.Diagnostic
	if *alloc {
		allocDiags, hotpaths, err := lint.RunAllocGuard(pkgs)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dirccvet:", err)
			os.Exit(2)
		}
		if hotpaths > 0 && !*jsonOut {
			fmt.Fprintf(os.Stderr, "dirccvet: allocguard checked %d hotpath function(s)\n", hotpaths)
		}
		extra = allocDiags
	}
	diags := lint.RunAnalyzers(pkgs, lint.All(), extra...)

	if *sarifOut != "" {
		w := os.Stdout
		if *sarifOut != "-" {
			f, err := os.Create(*sarifOut)
			if err != nil {
				fmt.Fprintln(os.Stderr, "dirccvet:", err)
				os.Exit(2)
			}
			defer f.Close()
			w = f
		}
		wd, _ := os.Getwd()
		if err := lint.WriteSARIF(w, diags, wd); err != nil {
			fmt.Fprintln(os.Stderr, "dirccvet:", err)
			os.Exit(2)
		}
	}

	if *jsonOut {
		type finding struct {
			File     string `json:"file"`
			Line     int    `json:"line"`
			Column   int    `json:"column"`
			Analyzer string `json:"analyzer"`
			Message  string `json:"message"`
		}
		out := make([]finding, 0, len(diags))
		for _, d := range diags {
			out = append(out, finding{
				File: d.Pos.Filename, Line: d.Pos.Line, Column: d.Pos.Column,
				Analyzer: d.Analyzer, Message: d.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "dirccvet:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "dirccvet: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
