package coalloc

// End-to-end tests of the command-line tools: each binary is built once
// into a temporary directory and driven the way a user would drive it.
// Skipped under -short.

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildCommands compiles every cmd/... binary into a shared temp dir.
func buildCommands(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	dir := t.TempDir()
	for _, name := range []string{"mcsim", "mcexp", "mctrace", "mcreplay", "mcmodel"} {
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
		replay := run(t, bin("mcreplay"), "-policy", "GS", "-limit", "16",
			"-load", "2", "-schedule", gantt, filtered)
		if !strings.Contains(replay, "jobs replayed") || !strings.Contains(replay, "mean response") {
			t.Errorf("mcreplay output:\n%s", replay)
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
			{"mcsim", []string{"-policy", "GS", "-retry-base", "700"}, "retry window"},
			{"mcexp", []string{"-quick", "-lookahead", "8", "fig1"}, "conservative backfilling"},
			{"mcexp", []string{"-quick", "-lookahead", "-2", "backfill"}, "must be >= 1"},
			{"mcexp", []string{"-quick", "-decisions", "table1"}, "-decisions"},
			{"mcexp", []string{"-quick", "-retry-cap", "5", "faults"}, "retry window"},
			{"mcsim", []string{"-clusters", "x"}, "bad -clusters value"},
			{"mcsim", []string{"-fit", "ZZ"}, "unknown fit rule"},
			{"mcreplay", []string{"-clusters", "x"}, "bad -clusters value"},
			{"mcreplay", []string{"-fit", "ZZ"}, "unknown fit rule"},
			{"mcmodel", []string{"gen", "-jobs", "0"}, "-jobs"},
			{"mcmodel", []string{"stats", "-jobs", "-3"}, "-jobs"},
			{"mcmodel", []string{"bogus"}, "usage: mcmodel"},
			{"mctrace", []string{"gen", "-jobs", "-5"}, "-jobs"},
			{"mctrace", []string{"filter", "-from", "100", "-to", "50"}, "-from"},
			{"mctrace", []string{"filter", "-from", "100"}, "-from"},
			{"mctrace", []string{"filter", "-to", "50"}, "-to"},
			{"mcsim", []string{"-util", "0"}, "-util"},
			{"mcsim", []string{"-util", "-0.3"}, "-util"},
			{"mcsim", []string{"-limit", "0"}, "-limit"},
			{"mcsim", []string{"-reps", "0"}, "-reps"},
			{"mcsim", []string{"-reps", "-3"}, "-reps"},
			{"mcsim", []string{"-jobs", "0"}, "-jobs"},
			{"mcreplay", []string{"-jobs", "-5"}, "-jobs"},
			{"mcreplay", []string{"-load", "0"}, "-load"},
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
		out = runExpectExit(t, 1, bin("mcreplay"), "-policy", "LS", "-limit", "16",
			"-trace", "/dev/full")
		if !strings.Contains(out, "writing trace") {
			t.Errorf("mcreplay full-disk trace error not surfaced:\n%s", out)
		}
	})

	t.Run("mcmodel", func(t *testing.T) {
		swf := filepath.Join(bins, "model.swf")
		run(t, bin("mcmodel"), "gen", "-jobs", "2000", "-o", swf)
		out := run(t, bin("mcreplay"), "-policy", "LS", "-limit", "16", swf)
		if !strings.Contains(out, "jobs replayed     2000") {
			t.Errorf("replaying a model trace:\n%s", out)
		}
	})
}
