package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"coalloc/internal/core"
	"coalloc/internal/obs"
	"coalloc/internal/plot"
)

// serialObserver attaches a metrics-only Observer to p. An Observer is
// single-threaded, so it forces sweepSet's serial grid-order loop: the
// reference the figure-level schedule is checked against.
func serialObserver(p *Params) { p.Observer = obs.New(nil) }

// TestScheduleModesRenderByteIdentical is the figure-level scheduling
// guardrail: a figure rendered under the figure-level schedule must
// produce byte-identical report text and CSV data to the serial grid-order
// loop. The scheduler only changes which simulation runs when; every point
// is an independently seeded run and the merge consumes results per curve
// in grid order.
func TestScheduleModesRenderByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	run := func(serial bool) (string, string) {
		t.Helper()
		dir := t.TempDir()
		p := tinyParams()
		p.Utilizations = []float64{0.3, 0.9} // 0.9 saturates the GS curves
		p.DataDir = dir
		if serial {
			serialObserver(&p)
		}
		env := NewEnv(p)
		out, err := Run("fig5", env)
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(dir, "fig5.csv"))
		if err != nil {
			t.Fatal(err)
		}
		return out, string(data)
	}
	refText, refCSV := run(true)
	text, csv := run(false)
	if text != refText {
		t.Errorf("figure text differs from serial:\n--- figure schedule ---\n%s\n--- serial ---\n%s", text, refText)
	}
	if csv != refCSV {
		t.Errorf("CSV differs from serial:\n--- figure schedule ---\n%s\n--- serial ---\n%s", csv, refCSV)
	}
}

// TestCurveSetModesMatch pins the same property at the API level: CurveSet
// under the figure-level schedule returns the same per-curve result
// sequences as the serial loop.
func TestCurveSetModesMatch(t *testing.T) {
	p := tinyParams()
	p.Utilizations = []float64{0.3, 0.9, 0.95}
	curves := func(serial bool) [][]core.Result {
		t.Helper()
		q := p
		if serial {
			serialObserver(&q)
		}
		env := NewEnv(q)
		spec := env.MultiSpec(16, env.Derived.Sizes128)
		sets, err := env.CurveSet([]CurveSpec{
			{Label: "GS", Policy: "GS", ClusterSizes: MulticlusterSizes, Spec: spec},
			{Label: "LS", Policy: "LS", ClusterSizes: MulticlusterSizes, Spec: spec},
		})
		if err != nil {
			t.Fatal(err)
		}
		return sets
	}
	ref := curves(true)
	got := curves(false)
	if len(got) != len(ref) {
		t.Fatalf("%d curves, want %d", len(got), len(ref))
	}
	for c := range ref {
		if len(got[c]) != len(ref[c]) {
			t.Errorf("curve %d: %d points, want %d", c, len(got[c]), len(ref[c]))
			continue
		}
		for i := range ref[c] {
			// Sprintf covers every field (Result holds slices and
			// NaN-able floats, so == is unavailable and unwanted).
			a := fmt.Sprintf("%+v", got[c][i])
			b := fmt.Sprintf("%+v", ref[c][i])
			if a != b {
				t.Errorf("curve %d point %d differs:\n  figure: %s\n  serial: %s", c, i, a, b)
			}
		}
	}
}

// TestProgressEffectiveCount checks the sweep progress accounting after an
// early stop: once saturation ends a curve, the skipped points leave the
// denominator, so the final line reads n/n instead of stalling at n/total.
func TestProgressEffectiveCount(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	var buf strings.Builder
	p := tinyParams()
	p.Utilizations = []float64{0.3, 0.9, 0.95} // 0.9 saturates GS
	p.Progress = &buf
	serialObserver(&p)
	env := NewEnv(p)
	cs := CurveSpec{
		Label:        "GS",
		Policy:       "GS",
		ClusterSizes: MulticlusterSizes,
		Spec:         env.MultiSpec(16, env.Derived.Sizes128),
	}
	if _, err := env.Curve(cs); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "(1/3 points)") {
		t.Errorf("first point should report against the full grid:\n%s", out)
	}
	if !strings.Contains(out, "saturated (2/2 points)") {
		t.Errorf("saturating point should shrink the denominator to the effective count:\n%s", out)
	}
	if strings.Contains(out, "2/3") {
		t.Errorf("progress still reports the stale denominator after the early stop:\n%s", out)
	}
	lines := strings.Count(out, "\n")
	if lines != 2 {
		t.Errorf("expected 2 progress lines (the curve stops at its 2nd point), got %d:\n%s", lines, out)
	}
}

// TestProgressFigureModeCountsAllCurves checks the figure-level schedule
// reports one line per completed point across the whole job set and never
// prints a denominator below its numerator, even with points in flight
// when a curve's stop marker shrinks.
func TestProgressFigureModeCountsAllCurves(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	// The progress mutex serializes all writes, so a plain Builder is safe.
	var buf strings.Builder
	p := tinyParams()
	p.Utilizations = []float64{0.3, 0.9, 0.95}
	p.Progress = &buf
	env := NewEnv(p)
	spec := env.MultiSpec(16, env.Derived.Sizes128)
	if _, err := env.CurveSet([]CurveSpec{
		{Label: "GS", Policy: "GS", ClusterSizes: MulticlusterSizes, Spec: spec},
		{Label: "LS", Policy: "LS", ClusterSizes: MulticlusterSizes, Spec: spec},
	}); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var done, eff int
		open := strings.LastIndexByte(line, '(')
		if open < 0 {
			t.Errorf("malformed progress line %q", line)
			continue
		}
		if _, err := fmt.Sscanf(line[open:], "(%d/%d points)", &done, &eff); err != nil {
			t.Errorf("malformed progress line %q: %v", line, err)
			continue
		}
		if done > eff {
			t.Errorf("progress line %q: numerator exceeds denominator", line)
		}
	}
}

// TestRankSummaryCutoffInvariant pins the horizon-independence of the
// "max stable gross utilization" summary: the saturation cutoff changes a
// terminator point's partial measurements (it stops the diverging run
// early), but because rankSummary excludes the terminator from the stable
// rank, the summary must be byte-identical with the cutoff on and off.
func TestRankSummaryCutoffInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	panel := func(cutoff bool) (string, int) {
		t.Helper()
		p := tinyParams()
		p.MeasureJobs = 3000 // deep enough for the divergence monitor to fire
		p.Utilizations = []float64{0.3, 0.9, 0.95}
		p.SaturationCutoff = cutoff
		env := NewEnv(p)
		spec := env.MultiSpec(16, env.Derived.Sizes128)
		specs := []CurveSpec{
			{Label: "GS", Policy: "GS", ClusterSizes: MulticlusterSizes, Spec: spec},
			{Label: "LS", Policy: "LS", ClusterSizes: MulticlusterSizes, Spec: spec},
		}
		sets, err := env.CurveSet(specs)
		if err != nil {
			t.Fatal(err)
		}
		truncated := 0
		series := make([]plot.Series, len(specs))
		for i := range specs {
			for _, res := range sets[i] {
				truncated += res.TruncatedJobs
			}
			series[i] = env.series(specs[i].Label, sets[i])
		}
		return rankSummary(series), truncated
	}
	full, fullTrunc := panel(false)
	cut, cutTrunc := panel(true)
	if fullTrunc != 0 {
		t.Fatalf("cutoff off truncated %d jobs", fullTrunc)
	}
	if cutTrunc == 0 {
		t.Fatal("cutoff on truncated nothing; the invariance check is vacuous")
	}
	if cut != full {
		t.Errorf("rank summary depends on the cutoff:\n  cutoff on:  %s  cutoff off: %s", cut, full)
	}
}
