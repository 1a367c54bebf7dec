package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildLinter compiles mclint once into a temp dir and returns the
// binary path.
func buildLinter(t *testing.T) string {
	t.Helper()
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	bin := filepath.Join(t.TempDir(), "mclint")
	cmd := exec.Command(gobin, "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// writeModule materializes a file map as a temp Go module and returns
// its root.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, content := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// runLinter executes the binary in dir and returns stdout, stderr, and
// the exit code.
func runLinter(t *testing.T, bin, dir string, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Dir = dir
	var out, errb strings.Builder
	cmd.Stdout = &out
	cmd.Stderr = &errb
	err := cmd.Run()
	code = 0
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("running %s: %v", bin, err)
		}
		code = ee.ExitCode()
	}
	return out.String(), errb.String(), code
}

// violatingModule is a module named like the real one, with one
// violation per rule at known positions.
var violatingModule = map[string]string{
	"go.mod": "module coalloc\n\ngo 1.22\n",
	"internal/sim/sim.go": `package sim

type Event struct{ id int32 }

type Engine struct{}

func (e *Engine) After(d float64, fn func()) Event { return Event{} }
`,
	"internal/policies/bad.go": `package policies

import (
	"math/rand"
	"time"

	"coalloc/internal/sim"
)

type sched struct {
	ev sim.Event
}

func now() int64 { return time.Now().Unix() }

func pick(m map[int]int) int {
	for k := range m {
		return k + int(rand.Int63())
	}
	return 0
}

var _ = sched{}
var _ = now
var _ = pick
`,
}

func TestEndToEndViolations(t *testing.T) {
	bin := buildLinter(t)
	mod := writeModule(t, violatingModule)
	stdout, stderr, code := runLinter(t, bin, mod, "./...")
	if code != 1 {
		t.Fatalf("exit code %d, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	// Rule IDs and positions, in sorted-by-position order.
	badfile := filepath.FromSlash("internal/policies/bad.go")
	for _, want := range []string{
		badfile + ":4:2: noglobalrand:",
		badfile + ":11:2: eventretain:",
		badfile + ":14:27: nowallclock:",
		badfile + ":17:2: nomaprange:",
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout missing %q\nstdout:\n%s", want, stdout)
		}
	}
	if !strings.Contains(stderr, "4 finding(s)") {
		t.Errorf("stderr missing finding count: %q", stderr)
	}
	// Findings must come out sorted by position.
	var lines []string
	for _, l := range strings.Split(stdout, "\n") {
		if strings.HasPrefix(l, badfile) {
			lines = append(lines, l)
		}
	}
	if len(lines) != 4 {
		t.Fatalf("got %d finding lines, want 4:\n%s", len(lines), stdout)
	}
	for i, rule := range []string{"noglobalrand", "eventretain", "nowallclock", "nomaprange"} {
		if !strings.Contains(lines[i], rule) {
			t.Errorf("finding %d = %q, want rule %s", i, lines[i], rule)
		}
	}
}

// TestJSONOutput checks the -json wire format: a dirty tree emits a
// parseable array (exit 1), a clean tree emits an empty array (exit 0).
func TestJSONOutput(t *testing.T) {
	bin := buildLinter(t)
	mod := writeModule(t, violatingModule)
	stdout, stderr, code := runLinter(t, bin, mod, "-json", "./...")
	if code != 1 {
		t.Fatalf("exit code %d, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	var out []struct {
		File string `json:"file"`
		Line int    `json:"line"`
		Col  int    `json:"col"`
		Rule string `json:"rule"`
		Msg  string `json:"msg"`
	}
	if err := json.Unmarshal([]byte(stdout), &out); err != nil {
		t.Fatalf("stdout is not a JSON array: %v\n%s", err, stdout)
	}
	if len(out) != 4 {
		t.Fatalf("got %d JSON findings, want 4: %v", len(out), out)
	}
	if out[0].Rule != "noglobalrand" || out[0].Line != 4 {
		t.Errorf("first finding = %+v, want noglobalrand at line 4", out[0])
	}
	for _, f := range out {
		if f.File == "" || f.Rule == "" || f.Msg == "" || f.Line <= 0 || f.Col <= 0 {
			t.Errorf("incomplete finding: %+v", f)
		}
	}
	if !strings.Contains(stderr, "4 finding(s)") {
		t.Errorf("stderr missing finding count: %q", stderr)
	}

	clean := writeModule(t, map[string]string{
		"go.mod":                  "module coalloc\n\ngo 1.22\n",
		"internal/policies/ok.go": "package policies\n\nfunc ok() int { return 1 }\n\nvar _ = ok\n",
	})
	stdout, _, code = runLinter(t, bin, clean, "-json", "./...")
	if code != 0 {
		t.Fatalf("clean -json exit code %d, want 0\nstdout:\n%s", code, stdout)
	}
	if strings.TrimSpace(stdout) != "[]" {
		t.Errorf("clean -json stdout = %q, want []", stdout)
	}
}

// TestTypeErrorExitCode pins the exit-code contract's failure half: a
// module that fails to type-check is a load error (exit 2), not a
// finding (exit 1).
func TestTypeErrorExitCode(t *testing.T) {
	bin := buildLinter(t)
	mod := writeModule(t, map[string]string{
		"go.mod":                      "module coalloc\n\ngo 1.22\n",
		"internal/policies/broken.go": "package policies\n\nfunc f() int { return \"nope\" }\n",
	})
	stdout, stderr, code := runLinter(t, bin, mod, "./...")
	if code != 2 {
		t.Fatalf("exit code %d, want 2\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	if !strings.Contains(stderr, "mclint:") {
		t.Errorf("stderr missing error report: %q", stderr)
	}
	if stdout != "" {
		t.Errorf("stdout not empty on load failure: %q", stdout)
	}
}

func TestEndToEndSuppressions(t *testing.T) {
	bin := buildLinter(t)
	mod := writeModule(t, map[string]string{
		"go.mod": "module coalloc\n\ngo 1.22\n",
		"internal/policies/ok.go": `package policies

func sum(m map[int]int) int {
	s := 0
	//detlint:ignore nomaprange integer sum is order-independent
	for _, v := range m {
		s += v
	}
	return s
}

var _ = sum
`,
	})
	stdout, stderr, code := runLinter(t, bin, mod, "./...")
	if code != 0 {
		t.Fatalf("exit code %d, want 0\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	if stdout != "" {
		t.Errorf("stdout not empty: %q", stdout)
	}

	// Removing the reason degrades the suppression to a malformed
	// directive: the original finding returns, plus the detlint report.
	path := filepath.Join(mod, "internal", "policies", "ok.go")
	content, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	stripped := strings.Replace(string(content),
		"//detlint:ignore nomaprange integer sum is order-independent",
		"//detlint:ignore nomaprange", 1)
	if err := os.WriteFile(path, []byte(stripped), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout, _, code = runLinter(t, bin, mod, "./...")
	if code != 1 {
		t.Fatalf("exit code %d after stripping reason, want 1\nstdout:\n%s", code, stdout)
	}
	if !strings.Contains(stdout, "nomaprange") || !strings.Contains(stdout, "detlint:") {
		t.Errorf("stdout missing revived finding or directive report:\n%s", stdout)
	}
}

func TestEndToEndCleanTree(t *testing.T) {
	bin := buildLinter(t)
	repoRoot, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	stdout, stderr, code := runLinter(t, bin, repoRoot, "./...")
	if code != 0 {
		t.Fatalf("repo tree not clean: exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
}

func TestListAndHelp(t *testing.T) {
	bin := buildLinter(t)
	rules := []string{
		"nowallclock", "noglobalrand", "nomaprange", "eventretain", "jobretain",
		"scratchescape", "closecheck", "noalloc", "stalesuppress",
	}

	stdout, _, code := runLinter(t, bin, ".", "-list")
	if code != 0 {
		t.Fatalf("-list exit code %d, want 0", code)
	}
	var listed []string
	for _, line := range strings.Split(strings.TrimSpace(stdout), "\n") {
		listed = append(listed, strings.Fields(line)[0])
	}
	if strings.Join(listed, " ") != strings.Join(rules, " ") {
		t.Errorf("-list names %v, want exactly %v", listed, rules)
	}

	_, stderr, code := runLinter(t, bin, ".", "-help")
	if code != 0 {
		t.Fatalf("-help exit code %d, want 0", code)
	}
	for _, r := range rules {
		if !strings.Contains(stderr, r) {
			t.Errorf("-help output missing rule %s:\n%s", r, stderr)
		}
	}
	if !strings.Contains(stderr, "detlint:ignore <rule> <reason>") {
		t.Errorf("-help output missing suppression syntax:\n%s", stderr)
	}
}

func TestUsageErrors(t *testing.T) {
	bin := buildLinter(t)
	if _, _, code := runLinter(t, bin, t.TempDir(), "./..."); code != 2 {
		t.Errorf("outside a module: exit %d, want 2", code)
	}
	if _, _, code := runLinter(t, bin, ".", "-nosuchflag"); code != 2 {
		t.Errorf("bad flag: exit %d, want 2", code)
	}
}
