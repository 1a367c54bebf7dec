package detlint_test

import (
	"bufio"
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"coalloc/internal/detlint"
)

// TestFixtureFindings runs the full rule set over the detmod fixture
// module and compares the findings against the `// want <rule>` markers
// in its sources: every marked line must be reported under exactly the
// marked rules, and nothing else may be reported.
func TestFixtureFindings(t *testing.T) {
	dir := filepath.Join("testdata", "src", "detmod")
	findings, err := detlint.Run(detlint.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]int)
	for _, f := range findings {
		rel, err := filepath.Rel(abs, f.Pos.Filename)
		if err != nil {
			t.Fatalf("finding outside fixture: %v", f)
		}
		got[fmt.Sprintf("%s:%d: %s", filepath.ToSlash(rel), f.Pos.Line, f.Rule)]++
	}
	want := parseWants(t, abs)
	for key := range want {
		if got[key] == 0 {
			t.Errorf("missing finding: %s", key)
		}
	}
	for key, n := range got {
		if want[key] == 0 {
			t.Errorf("unexpected finding (%d): %s", n, key)
		}
	}
}

var wantRE = regexp.MustCompile(`// want ([a-z ]+)$`)

// parseWants scans every fixture source file for `// want rule [rule...]`
// markers and returns the expected (file:line: rule) keys.
func parseWants(t *testing.T, root string) map[string]int {
	t.Helper()
	want := make(map[string]int)
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			m := wantRE.FindStringSubmatch(sc.Text())
			if m == nil {
				continue
			}
			for _, rule := range strings.Fields(m[1]) {
				want[fmt.Sprintf("%s:%d: %s", filepath.ToSlash(rel), line, rule)]++
			}
		}
		return sc.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("no want markers found in fixtures")
	}
	return want
}

// TestMalformedSuppressions checks that directives without a rule,
// without a reason, naming an unknown rule (including the retired
// scratchescape and handleflow), or trying to silence the staleness
// reporter are reported under the pseudo-rule "detlint".
func TestMalformedSuppressions(t *testing.T) {
	dir := filepath.Join("testdata", "src", "badsuppress")
	findings, err := detlint.Run(detlint.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var lines []int
	for _, f := range findings {
		if f.Rule != "detlint" {
			t.Errorf("unexpected rule %q: %v", f.Rule, f)
			continue
		}
		if filepath.Base(f.Pos.Filename) != "bad.go" {
			t.Errorf("finding in unexpected file: %v", f)
		}
		lines = append(lines, f.Pos.Line)
	}
	sort.Ints(lines)
	if want := []int{6, 9, 12, 15, 18, 23}; !equalInts(lines, want) {
		t.Errorf("detlint findings on lines %v, want %v", lines, want)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSingleAnalyzer checks that Config.Analyzers restricts the rule set:
// with only noglobalrand active, the wall-clock and map-range violations
// in the fixture module go unreported.
func TestSingleAnalyzer(t *testing.T) {
	dir := filepath.Join("testdata", "src", "detmod")
	findings, err := detlint.Run(detlint.Config{
		Dir:       dir,
		Analyzers: []*detlint.Analyzer{detlint.NoGlobalRand},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 2 {
		t.Fatalf("got %d findings, want 2 (the two rand imports): %v", len(findings), findings)
	}
	for _, f := range findings {
		if f.Rule != "noglobalrand" {
			t.Errorf("unexpected rule %q: %v", f.Rule, f)
		}
	}
}

// TestPatternSubset checks that a non-recursive pattern restricts the
// analysis to one package even though its module-internal dependencies
// are still loaded for type information.
func TestPatternSubset(t *testing.T) {
	dir := filepath.Join("testdata", "src", "detmod")
	findings, err := detlint.Run(detlint.Config{
		Dir:      dir,
		Patterns: []string{"internal/dist"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 || findings[0].Rule != "noglobalrand" {
		t.Fatalf("got %v, want exactly the dist noglobalrand finding", findings)
	}
}

// TestRepoClean is the acceptance guardrail: the repository's own tree
// must be free of findings. Every determinism invariant the analyzers
// encode is enforced on every `go test ./...` run by this test, not just
// when mclint runs.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	findings, err := detlint.Run(detlint.Config{Dir: filepath.Join("..", "..")})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}

// TestRunErrors exercises the load-failure paths.
func TestRunErrors(t *testing.T) {
	if _, err := detlint.Run(detlint.Config{Dir: t.TempDir()}); err == nil {
		t.Error("Run outside a module: want error")
	}
	if _, err := detlint.Run(detlint.Config{
		Dir:      filepath.Join("testdata", "src", "detmod"),
		Patterns: []string{"no/such/dir"},
	}); err == nil {
		t.Error("Run with missing pattern dir: want error")
	}
}

// TestDeterministicPackagesClosed pins that the deterministic set is
// closed under imports: every module package a deterministic package
// imports (test files aside) must be in the set too, or the rules that
// apply only inside it would skip code the simulation runs. Checking the
// direct imports of every member covers the transitive closure.
func TestDeterministicPackagesClosed(t *testing.T) {
	const modPath = "coalloc/"
	inSet := map[string]bool{}
	for _, rel := range detlint.DeterministicPackages {
		inSet[rel] = true
	}
	root := filepath.Join("..", "..")
	for _, rel := range detlint.DeterministicPackages {
		files, err := filepath.Glob(filepath.Join(root, rel, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		if len(files) == 0 {
			t.Errorf("%s: deterministic package has no Go files", rel)
		}
		fset := token.NewFileSet()
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, file, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				path, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					t.Fatal(err)
				}
				if dep, ok := strings.CutPrefix(path, modPath); ok && !inSet[dep] {
					t.Errorf("%s: deterministic package %s imports %s, which is not in DeterministicPackages",
						fset.Position(imp.Pos()), rel, dep)
				}
			}
		}
	}
}
