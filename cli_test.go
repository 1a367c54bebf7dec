package coalloc

// End-to-end tests of the command-line tools: each binary is built once
// into a temporary directory and driven the way a user would drive it.
// Skipped under -short.

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"coalloc/internal/detlint"
)

// buildCommands compiles every cmd/... binary into a shared temp dir.
// The list is read from the cmd directory, so a command that is added
// or removed cannot drift out of the suite.
func buildCommands(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	entries, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		name := e.Name()
		out := filepath.Join(dir, name)
		cmd := exec.Command("go", "build", "-o", out, "./cmd/"+name)
		cmd.Dir = mustRepoRoot(t)
		if output, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", name, err, output)
		}
	}
	return dir
}

func mustRepoRoot(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return wd
}

// run executes a built binary and returns its stdout+stderr.
func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %s: %v\n%s", filepath.Base(bin), strings.Join(args, " "), err, out)
	}
	return string(out)
}

// runExpectExit executes a built binary expecting it to fail with the
// given exit status, and returns its stdout+stderr for message checks.
func runExpectExit(t *testing.T, want int, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("%s %s: succeeded, want exit %d\n%s", filepath.Base(bin), strings.Join(args, " "), want, out)
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("%s %s: %v (not an exit error)", filepath.Base(bin), strings.Join(args, " "), err)
	}
	if got := ee.ExitCode(); got != want {
		t.Fatalf("%s %s: exit %d, want %d\n%s", filepath.Base(bin), strings.Join(args, " "), got, want, out)
	}
	return string(out)
}

func TestCLIEndToEnd(t *testing.T) {
	bins := buildCommands(t)
	bin := func(name string) string { return filepath.Join(bins, name) }

	t.Run("mcsim", func(t *testing.T) {
		out := run(t, bin("mcsim"), "-policy", "LS", "-limit", "16", "-util", "0.4",
			"-jobs", "2000", "-warmup", "200")
		for _, w := range []string{"policy", "LS", "mean response", "measured gross util", "saturated"} {
			if !strings.Contains(out, w) {
				t.Errorf("mcsim output missing %q:\n%s", w, out)
			}
		}
	})

	t.Run("mcsim backlog", func(t *testing.T) {
		out := run(t, bin("mcsim"), "-policy", "GS", "-limit", "24", "-backlog")
		if !strings.Contains(out, "max gross util") {
			t.Errorf("mcsim -backlog output:\n%s", out)
		}
	})

	t.Run("mcexp", func(t *testing.T) {
		out := run(t, bin("mcexp"), "-quick", "table2")
		if !strings.Contains(out, "0.009") { // the recovered Table 2 entry
			t.Errorf("mcexp table2 output:\n%s", out)
		}
		list := run(t, bin("mcexp"), "list")
		for _, w := range []string{"fig3", "table3", "backfill"} {
			if !strings.Contains(list, w) {
				t.Errorf("mcexp list missing %q", w)
			}
		}
	})

	t.Run("trace pipeline", func(t *testing.T) {
		swf := filepath.Join(bins, "das.swf")
		run(t, bin("mctrace"), "gen", "-jobs", "3000", "-o", swf)
		stats := run(t, bin("mctrace"), "stats", swf)
		if !strings.Contains(stats, "jobs                3000") {
			t.Errorf("mctrace stats:\n%s", stats)
		}
		filtered := filepath.Join(bins, "das64.swf")
		run(t, bin("mctrace"), "filter", "-maxsize", "64", "-o", filtered, swf)
		fstats := run(t, bin("mctrace"), "stats", filtered)
		if !strings.Contains(fstats, "[1, 64]") {
			t.Errorf("filtered stats:\n%s", fstats)
		}

		gantt := filepath.Join(bins, "gantt.csv")
		replay := run(t, bin("mcsim"), "-replay", "-policy", "GS", "-limit", "16",
			"-load", "2", "-schedule", gantt, filtered)
		if !strings.Contains(replay, "jobs replayed") || !strings.Contains(replay, "mean response") {
			t.Errorf("mcsim -replay output:\n%s", replay)
		}
		data, err := os.ReadFile(gantt)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(string(data), "id,size,components") {
			t.Errorf("gantt CSV header: %q", string(data[:30]))
		}
	})

	t.Run("mcsim decisions", func(t *testing.T) {
		trace := filepath.Join(bins, "decisions.jsonl")
		out := run(t, bin("mcsim"), "-policy", "GS-CONS", "-limit", "16", "-util", "0.6",
			"-jobs", "1500", "-warmup", "200", "-decisions", "-metrics", "-trace", trace)
		for _, w := range []string{"decisions recorded", "regret", "sched.decisions"} {
			if !strings.Contains(out, w) {
				t.Errorf("mcsim -decisions output missing %q:\n%s", w, out)
			}
		}
		data, err := os.ReadFile(trace)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(data), `"ev":"decision"`) {
			t.Error("trace has no decision records")
		}
	})

	t.Run("flag validation", func(t *testing.T) {
		// Unified exit status 2 for bad flag combinations, with the same
		// wording family across commands.
		cases := []struct {
			bin  string
			args []string
			want string
		}{
			{"mcsim", []string{"-policy", "LS", "-lookahead", "8"}, "conservative backfilling"},
			{"mcsim", []string{"-policy", "GS-CONS", "-lookahead", "-2"}, "must be >= 1"},
			{"mcsim", []string{"-policy", "GS", "-backlog", "-decisions"}, "-decisions"},
			{"mcsim", []string{"-policy", "GS", "-backlog", "-metrics"}, "-backlog"},
			{"mcsim", []string{"-checkpoint-interval", "300"}, "-checkpoint-interval"},
			{"mcsim", []string{"-mtbf", "2000", "-backlog"}, "-backlog"},
			{"mcsim", []string{"-policy", "GS", "-retry-base", "700"}, "retry window"},
			{"mcexp", []string{"-quick", "-lookahead", "8", "fig1"}, "conservative backfilling"},
			{"mcexp", []string{"-quick", "-lookahead", "-2", "backfill"}, "must be >= 1"},
			{"mcexp", []string{"-quick", "-decisions", "table1"}, "-decisions"},
			{"mcexp", []string{"-quick", "-retry-cap", "5", "faults"}, "retry window"},
			{"mcsim", []string{"-clusters", "x"}, "bad -clusters value"},
			{"mcsim", []string{"-fit", "ZZ"}, "unknown fit rule"},
			{"mcsim", []string{"-replay", "-clusters", "x"}, "bad -clusters value"},
			{"mcsim", []string{"-replay", "-fit", "ZZ"}, "unknown fit rule"},
			{"mctrace", []string{"gen", "-model", "feitelson", "-jobs", "-3"}, "-jobs"},
			{"mctrace", []string{"gen", "-model", "bogus"}, "-model"},
			{"mctrace", []string{"bogus"}, "usage: mctrace"},
			{"mctrace", []string{"gen", "-jobs", "-5"}, "-jobs"},
			// The feitelson model's flags need -model feitelson.
			{"mctrace", []string{"gen", "-procs", "64"}, "-procs"},
			{"mctrace", []string{"gen", "-model", "das", "-serial", "0.2"}, "-serial"},
			{"mctrace", []string{"gen", "-rate", "0.01"}, "-rate"},
			{"mctrace", []string{"filter", "-from", "100", "-to", "50"}, "-from"},
			{"mctrace", []string{"filter", "-from", "100"}, "-from"},
			{"mctrace", []string{"filter", "-to", "50"}, "-to"},
			{"mcsim", []string{"-util", "0"}, "-util"},
			{"mcsim", []string{"-util", "-0.3"}, "-util"},
			{"mcsim", []string{"-limit", "0"}, "-limit"},
			{"mcsim", []string{"-reps", "0"}, "-reps"},
			{"mcsim", []string{"-reps", "-3"}, "-reps"},
			{"mcsim", []string{"-jobs", "0"}, "-jobs"},
			{"mcsim", []string{"-ext", "NaN"}, "-ext"},
			{"mcsim", []string{"-ext", "Inf"}, "-ext"},
			{"mcsim", []string{"-replay", "-ext", "0.5"}, "-ext"},
			{"mcsim", []string{"-mtbf", "-5"}, "-mtbf"},
			{"mcsim", []string{"-mtbf", "NaN"}, "-mtbf"},
			{"mcsim", []string{"-mttr", "Inf"}, "-mttr"},
			{"mcsim", []string{"-mttr", "NaN"}, "-mttr"},
			{"mcsim", []string{"-mtbf", "2000", "-mttr", "0"}, "-mttr"},
			{"mcsim", []string{"-mtbf", "2000", "-checkpoint-interval", "Inf"}, "-checkpoint-interval"},
			{"mcexp", []string{"-quick", "-mtbf", "Inf", "checkpoint"}, "-mtbf"},
			{"mcexp", []string{"-quick", "-precision", "Inf", "sizeclasses"}, "-precision"},
			{"mcexp", []string{"-quick", "-precision", "NaN", "sizeclasses"}, "-precision"},
			{"mcexp", []string{"-quick", "-precision", "-0.1", "sizeclasses"}, "-precision"},
			{"mcexp", []string{"-quick", "-max-reps", "-1", "sizeclasses"}, "-max-reps"},
			{"mcexp", []string{"-quick", "-max-reps", "5", "sizeclasses"}, "-max-reps"},
			{"mcsim", []string{"-replay", "-jobs", "-5"}, "-jobs"},
			{"mcsim", []string{"-replay", "-jobs", "0"}, "-jobs"},
			{"mcsim", []string{"-replay", "-load", "0"}, "-load"},
			// Flags a replay cannot use, set explicitly.
			{"mcsim", []string{"-replay", "-util", "0.5"}, "-util"},
			{"mcsim", []string{"-replay", "-warmup", "100"}, "-warmup"},
			{"mcsim", []string{"-replay", "-reps", "1"}, "-reps"},
			{"mcsim", []string{"-replay", "-cap64"}, "-cap64"},
			{"mcsim", []string{"-replay", "-backlog"}, "-backlog"},
			{"mcsim", []string{"-replay", "-mtbf", "2000"}, "-mtbf"},
			{"mcsim", []string{"-replay", "-mttr", "900"}, "-mttr"},
			{"mcsim", []string{"-replay", "-retry-base", "10"}, "-retry-base"},
			{"mcsim", []string{"-replay", "-retry-cap", "600"}, "-retry-cap"},
			{"mcsim", []string{"-replay", "-checkpoint-interval", "300"}, "-checkpoint-interval"},
			{"mcsim", []string{"-replay", "-saturation-cutoff"}, "-saturation-cutoff"},
			{"mcsim", []string{"-replay", "-decisions"}, "-decisions"},
			// Replay-only flags and log files need -replay.
			{"mcsim", []string{"-load", "2"}, "-load"},
			{"mcsim", []string{"-schedule", "gantt.csv"}, "-schedule"},
			{"mcsim", []string{"das.swf"}, "-replay"},
			{"mcsim", []string{"-replay", "a.swf", "b.swf"}, "-replay"},
			{"mcexp", []string{"-quick", "-reps", "-1", "table1"}, "-reps"},
			{"mcexp", []string{"-quick", "-jobs", "-1", "table1"}, "-jobs"},
		}
		for _, c := range cases {
			out := runExpectExit(t, 2, bin(c.bin), c.args...)
			if !strings.Contains(out, c.want) {
				t.Errorf("%s %s: message %q missing %q", c.bin, strings.Join(c.args, " "), out, c.want)
			}
		}
		// Valid combinations of the same flags still run.
		run(t, bin("mcsim"), "-policy", "GS-CONS", "-lookahead", "8", "-util", "0.4",
			"-jobs", "500", "-warmup", "100")
	})

	t.Run("failing trace writer", func(t *testing.T) {
		if _, err := os.Stat("/dev/full"); err != nil {
			t.Skip("/dev/full unavailable")
		}
		out := runExpectExit(t, 1, bin("mcsim"), "-policy", "LS", "-util", "0.4",
			"-jobs", "2000", "-warmup", "200", "-trace", "/dev/full")
		if !strings.Contains(out, "writing trace") {
			t.Errorf("full-disk trace error not surfaced:\n%s", out)
		}
		out = runExpectExit(t, 1, bin("mcsim"), "-replay", "-policy", "LS", "-limit", "16",
			"-trace", "/dev/full")
		if !strings.Contains(out, "writing trace") {
			t.Errorf("mcsim -replay full-disk trace error not surfaced:\n%s", out)
		}
	})

	t.Run("feitelson model", func(t *testing.T) {
		swf := filepath.Join(bins, "model.swf")
		run(t, bin("mctrace"), "gen", "-model", "feitelson", "-jobs", "2000", "-o", swf)
		out := run(t, bin("mcsim"), "-replay", "-policy", "LS", "-limit", "16", swf)
		if !strings.Contains(out, "jobs replayed     2000") {
			t.Errorf("replaying a model trace:\n%s", out)
		}
		stats := run(t, bin("mctrace"), "stats", swf)
		if !strings.Contains(stats, "jobs                2000") || !strings.Contains(stats, "total") {
			t.Errorf("mctrace stats of a model trace:\n%s", stats)
		}
	})
}

// TestREADMENamesLintRules checks that the README's Linting section
// lists exactly the detlint rule catalog, in catalog order, one
// "- `rule`:" bullet per rule.
func TestREADMENamesLintRules(t *testing.T) {
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(data)
	start := strings.Index(readme, "\n## Linting\n")
	if start < 0 {
		t.Fatal("README.md has no Linting section")
	}
	section := readme[start+1:]
	if end := strings.Index(section[1:], "\n## "); end >= 0 {
		section = section[:end+1]
	}
	var listed []string
	for _, m := range regexp.MustCompile("(?m)^- `([a-z]+)`:").FindAllStringSubmatch(section, -1) {
		listed = append(listed, m[1])
	}
	var rules []string
	for _, a := range detlint.All() {
		rules = append(rules, a.Name)
	}
	if strings.Join(listed, " ") != strings.Join(rules, " ") {
		t.Errorf("README.md Linting section lists rules %v, detlint.All() has %v", listed, rules)
	}
}

// TestREADMEMatchesTree keeps README.md in step with the tree: every
// cmd/<name> and examples/<name> path it mentions exists, with or
// without a leading ./; the examples/ row of the layout block names
// exactly the directories under examples/; and the output block after
// "go run ./examples/quickstart" is that program's output. Skipped
// under -short.
func TestREADMEMatchesTree(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the quickstart example")
	}
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(data)
	paths := regexp.MustCompile(`\b(cmd|examples)/[A-Za-z0-9_]+`).FindAllString(readme, -1)
	if len(paths) == 0 {
		t.Fatal("README.md mentions no cmd or examples paths")
	}
	seen := map[string]bool{}
	for _, p := range paths {
		if seen[p] {
			continue
		}
		seen[p] = true
		if fi, err := os.Stat(p); err != nil || !fi.IsDir() {
			t.Errorf("README.md mentions %s, which is not a directory", p)
		}
	}

	// The layout row is "examples/" and a comma-separated list of names,
	// continued on indented lines.
	row := regexp.MustCompile(`(?m)^examples/ +(.*(?:\n {2,}.*)*)`).FindStringSubmatch(readme)
	if row == nil {
		t.Fatal("README.md layout block has no examples/ row")
	}
	listed := strings.FieldsFunc(row[1], func(r rune) bool { return r == ',' || r == ' ' || r == '\n' })
	entries, err := os.ReadDir("examples")
	if err != nil {
		t.Fatal(err)
	}
	var dirs []string
	for _, e := range entries {
		if e.IsDir() {
			dirs = append(dirs, e.Name())
		}
	}
	sort.Strings(listed)
	if strings.Join(listed, " ") != strings.Join(dirs, " ") {
		t.Errorf("README.md layout row lists examples %v, examples/ holds %v", listed, dirs)
	}

	const intro = "go run ./examples/quickstart\n```\n\n```text\n"
	i := strings.Index(readme, intro)
	if i < 0 {
		t.Fatal("README.md has no text block after go run ./examples/quickstart")
	}
	block := readme[i+len(intro):]
	block = block[:strings.Index(block, "```")]
	out, err := exec.Command("go", "run", "./examples/quickstart").Output()
	if err != nil {
		t.Fatalf("go run ./examples/quickstart: %v", err)
	}
	if string(out) != block {
		t.Errorf("README quickstart block:\n%s\nprogram output:\n%s", block, out)
	}
}
