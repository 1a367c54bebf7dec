// Command mclint runs the detlint static-analysis suite over the module:
// the determinism invariants the simulator's results depend on, enforced
// as machine-checked rules (see internal/detlint).
//
// Usage:
//
//	mclint [-list] [-json] [pattern ...]
//
// Patterns default to ./... and accept plain directories or the
// recursive dir/... form, resolved against the working directory. The
// exit status is 0 when the tree is clean, 1 when any rule fires, and 2
// on usage or load errors (no module, or a package that fails to parse
// or type-check).
//
// -json replaces the plain file:line:col lines with a JSON array of
// findings on stdout, for tooling.
//
// Findings can be suppressed at a specific site with a mandatory reason:
//
//	//detlint:ignore <rule> <reason>
//
// placed on the offending line or the line directly above it. A
// directive that suppresses nothing is itself reported (stalesuppress).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"coalloc/internal/detlint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// jsonFinding is the -json wire format for one finding.
type jsonFinding struct {
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
	Rule string `json:"rule"`
	Msg  string `json:"msg"`
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("mclint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the rule catalog and exit")
	asJSON := fs.Bool("json", false, "emit findings as a JSON array on stdout")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: mclint [-list] [-json] [pattern ...]\n\n")
		fmt.Fprintf(stderr, "Checks the packages matching the patterns (default ./...) against the\n")
		fmt.Fprintf(stderr, "detlint determinism rules. Exits 1 if any rule fires, 2 if a package\n")
		fmt.Fprintf(stderr, "fails to load or type-check.\n\nRules:\n")
		printRules(stderr)
		fmt.Fprintf(stderr, "\nSuppress a finding on its line or the line above, with a reason:\n")
		fmt.Fprintf(stderr, "  //detlint:ignore <rule> <reason>\n\nFlags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if *list {
		printRules(stdout)
		return 0
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	findings, err := detlint.Run(detlint.Config{Dir: ".", Patterns: patterns})
	if err != nil {
		fmt.Fprintf(stderr, "mclint: %v\n", err)
		return 2
	}
	cwd, _ := os.Getwd()
	relName := func(name string) string {
		if cwd != "" {
			if rel, err := filepath.Rel(cwd, name); err == nil && !filepath.IsAbs(rel) {
				return rel
			}
		}
		return name
	}
	if *asJSON {
		out := make([]jsonFinding, 0, len(findings))
		for _, f := range findings {
			out = append(out, jsonFinding{
				File: relName(f.Pos.Filename),
				Line: f.Pos.Line,
				Col:  f.Pos.Column,
				Rule: f.Rule,
				Msg:  f.Msg,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(stderr, "mclint: %v\n", err)
			return 2
		}
		if len(findings) == 0 {
			return 0
		}
		fmt.Fprintf(stderr, "mclint: %d finding(s)\n", len(findings))
		return 1
	}
	if len(findings) == 0 {
		return 0
	}
	for _, f := range findings {
		fmt.Fprintf(stdout, "%s:%d:%d: %s: %s\n", relName(f.Pos.Filename), f.Pos.Line, f.Pos.Column, f.Rule, f.Msg)
	}
	fmt.Fprintf(stderr, "mclint: %d finding(s)\n", len(findings))
	return 1
}

func printRules(w *os.File) {
	for _, a := range detlint.All() {
		fmt.Fprintf(w, "  %-13s %s\n", a.Name, a.Doc)
	}
}
