// Command reptvet drives the REPT invariant analyzers (hotpathalloc,
// detorder, satarith, viewaccess) over Go packages and exits non-zero
// when any diagnostic is reported. It is the CI gate that turns the
// repository's runtime invariants — the zero-allocation hot path,
// deterministic encode/merge iteration, saturating counter arithmetic,
// and epoch-view access discipline — into compile-time failures.
//
// Usage:
//
//	go run ./cmd/reptvet ./...
//	go run ./cmd/reptvet -only hotpathalloc,detorder ./internal/...
//	go run ./cmd/reptvet -list
//
// Diagnostics print as path:line:col: [analyzer] message, one per line.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"rept/internal/analysis"
	"rept/internal/analysis/detorder"
	"rept/internal/analysis/hotpathalloc"
	"rept/internal/analysis/load"
	"rept/internal/analysis/satarith"
	"rept/internal/analysis/viewaccess"
)

// analyzers is the full suite, in the order diagnostics group by.
var analyzers = []*analysis.Analyzer{
	hotpathalloc.Analyzer,
	detorder.Analyzer,
	satarith.Analyzer,
	viewaccess.Analyzer,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("reptvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "print the available analyzers and exit")
	only := fs.String("only", "", "comma-separated subset of analyzers to run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-16s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	suite, err := selectAnalyzers(*only)
	if err != nil {
		fmt.Fprintln(stderr, "reptvet:", err)
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := load.Packages(".", patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "reptvet:", err)
		return 2
	}

	findings := 0
	for _, pkg := range pkgs {
		for _, a := range suite {
			pass := &analysis.Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
			}
			if err := a.Run(pass); err != nil {
				fmt.Fprintf(stderr, "reptvet: %s on %s: %v\n", a.Name, pkg.Path, err)
				return 2
			}
			for _, d := range pass.Diagnostics() {
				fmt.Fprintf(stdout, "%s: [%s] %s\n", pkg.Fset.Position(d.Pos), a.Name, d.Message)
				findings++
			}
		}
	}
	if findings > 0 {
		fmt.Fprintf(stderr, "reptvet: %d finding(s)\n", findings)
		return 1
	}
	return 0
}

// selectAnalyzers resolves the -only flag to a subset of the suite.
func selectAnalyzers(only string) ([]*analysis.Analyzer, error) {
	if only == "" {
		return analyzers, nil
	}
	byName := make(map[string]*analysis.Analyzer, len(analyzers))
	for _, a := range analyzers {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(only, ",") {
		a := byName[strings.TrimSpace(name)]
		if a == nil {
			return nil, fmt.Errorf("unknown analyzer %q (see -list)", name)
		}
		out = append(out, a)
	}
	return out, nil
}
