package cliutil

import (
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"coalloc/internal/cluster"
	"coalloc/internal/dastrace"
)

type exitPanic int

// captureExit runs fn with the process exit intercepted and reports the
// status it attempted to exit with (-1 when it returned normally).
func captureExit(t *testing.T, fn func()) int {
	t.Helper()
	old := exit
	exit = func(c int) { panic(exitPanic(c)) }
	defer func() { exit = old }()
	code := -1
	func() {
		defer func() {
			if r := recover(); r != nil {
				c, ok := r.(exitPanic)
				if !ok {
					panic(r)
				}
				code = int(c)
			}
		}()
		fn()
	}()
	return code
}

func TestCheckLookahead(t *testing.T) {
	cases := []struct {
		v       int
		applies bool
		want    int
	}{
		{0, false, -1}, // default: always fine, even when inapplicable
		{0, true, -1},
		{1, true, -1},
		{32, true, -1},
		{-3, true, 2},  // explicit values must be >= 1
		{-3, false, 2}, // the bound check fires before applicability
		{5, false, 2},  // dangling bound: nothing backfills conservatively
	}
	for _, c := range cases {
		got := captureExit(t, func() {
			CheckLookahead("test", c.v, c.applies, "no conservative policy in this run")
		})
		if got != c.want {
			t.Errorf("CheckLookahead(%d, applies=%v) exit %d, want %d", c.v, c.applies, got, c.want)
		}
	}
}

func TestCheckDecisions(t *testing.T) {
	cases := []struct {
		on, applies bool
		want        int
	}{
		{false, false, -1},
		{false, true, -1},
		{true, true, -1},
		{true, false, 2},
	}
	for _, c := range cases {
		got := captureExit(t, func() {
			CheckDecisions("test", c.on, c.applies, "no simulations in this run")
		})
		if got != c.want {
			t.Errorf("CheckDecisions(on=%v, applies=%v) exit %d, want %d", c.on, c.applies, got, c.want)
		}
	}
}

func TestCheckRetryWindow(t *testing.T) {
	cases := []struct {
		base, cap float64
		want      int
	}{
		{0, 0, -1},    // both defaulted: 10 s under 600 s
		{10, 600, -1}, // explicit defaults
		{50, 50, -1},  // degenerate but non-empty window
		{700, 1000, -1},
		{0, 5, 2},    // cap below the defaulted 10 s base
		{700, 0, 2},  // explicit base above the defaulted 600 s cap
		{600, 50, 2}, // both explicit, inverted
		{-1, 600, 2},
		{10, math.NaN(), 2},
		{math.Inf(1), 0, 2},
	}
	for _, c := range cases {
		got := captureExit(t, func() {
			CheckRetryWindow("test", c.base, c.cap)
		})
		if got != c.want {
			t.Errorf("CheckRetryWindow(%g, %g) exit %d, want %d", c.base, c.cap, got, c.want)
		}
	}
}

func TestCheckFaultFlags(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	cases := []struct {
		mtbf, mttr, ckpt float64
		want             int
	}{
		{0, 900, 0, -1},
		{2000, 900, 300, -1},
		{-1, 900, 0, 2},
		{nan, 900, 0, 2},
		{inf, 900, 0, 2},
		{2000, inf, 0, 2},
		{2000, nan, 0, 2},
		{2000, -5, 0, 2},
		{2000, 900, inf, 2},
		{2000, 900, -1, 2},
	}
	for _, c := range cases {
		got := captureExit(t, func() {
			CheckFaultFlags("test", c.mtbf, c.mttr, c.ckpt)
		})
		if got != c.want {
			t.Errorf("CheckFaultFlags(%g, %g, %g) exit %d, want %d", c.mtbf, c.mttr, c.ckpt, got, c.want)
		}
	}
}

func TestClusters(t *testing.T) {
	cases := []struct {
		v, policy string
		want      []int
		exit      int
	}{
		{"", "GS", []int{32, 32, 32, 32}, -1},
		{"", "SC", []int{128}, -1},
		{"", "SC-CONS", []int{128}, -1},
		{"64, 64", "LS", []int{64, 64}, -1},
		{"x", "GS", nil, 2},
		{"32,0", "GS", nil, 2},
	}
	for _, c := range cases {
		var got []int
		code := captureExit(t, func() { got = Clusters("test", c.v, c.policy) })
		if code != c.exit || (code == -1 && !slices.Equal(got, c.want)) {
			t.Errorf("Clusters(%q, %s) = %v exit %d, want %v exit %d", c.v, c.policy, got, code, c.want, c.exit)
		}
	}
}

func TestFit(t *testing.T) {
	for i, v := range []string{"WF", "ff", "BF"} {
		if got, want := Fit("test", v), []cluster.Fit{cluster.WorstFit, cluster.FirstFit, cluster.BestFit}[i]; got != want {
			t.Errorf("Fit(%q) = %v, want %v", v, got, want)
		}
	}
	if code := captureExit(t, func() { Fit("test", "ZZ") }); code != 2 {
		t.Errorf("Fit(ZZ) exit %d, want 2", code)
	}
}

func TestLoadLog(t *testing.T) {
	if got, want := len(LoadLog("test", nil)), dastrace.DefaultConfig().NumJobs; got != want {
		t.Errorf("LoadLog with no file: %d records, want the synthetic log's %d", got, want)
	}

	dir := t.TempDir()
	recs := dastrace.Generate(dastrace.GenConfig{NumJobs: 50, Seed: 3})
	path := filepath.Join(dir, "log.swf")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := dastrace.WriteSWF(f, recs, "test log"); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if got := LoadLog("test", []string{path}); len(got) != len(recs) {
		t.Errorf("LoadLog(%s): %d records, want %d", path, len(got), len(recs))
	}

	bad := filepath.Join(dir, "bad.swf")
	if err := os.WriteFile(bad, []byte("1 x y\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{filepath.Join(dir, "missing.swf"), bad} {
		if code := captureExit(t, func() { LoadLog("test", []string{p}) }); code != 1 {
			t.Errorf("LoadLog(%s) exit %d, want 1", p, code)
		}
	}
}
