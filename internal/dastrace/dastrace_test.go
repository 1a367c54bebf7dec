package dastrace

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSizeSpecNormalized(t *testing.T) {
	values, probs := SizeSpec()
	if len(values) != len(probs) {
		t.Fatal("mismatched spec slices")
	}
	if len(values) != 58 {
		t.Errorf("%d distinct sizes, want the paper's 58", len(values))
	}
	var total float64
	seen := map[int]bool{}
	for i, v := range values {
		if v < 1 || v > 128 {
			t.Errorf("size %d outside [1,128]", v)
		}
		if seen[v] {
			t.Errorf("duplicate size %d", v)
		}
		seen[v] = true
		if probs[i] <= 0 {
			t.Errorf("size %d has non-positive probability %g", v, probs[i])
		}
		total += probs[i]
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("probabilities sum to %g", total)
	}
}

func TestSizeSpecMatchesTable1(t *testing.T) {
	values, probs := SizeSpec()
	for i, v := range values {
		if want, ok := Table1[v]; ok {
			if math.Abs(probs[i]-want) > 1e-12 {
				t.Errorf("P(%d) = %g, want Table 1 value %g", v, probs[i], want)
			}
		}
	}
}

// TestSizeSpecMatchesTable2Bands checks the band masses reverse-engineered
// from the paper's Table 2 (see the package comment).
func TestSizeSpecMatchesTable2Bands(t *testing.T) {
	values, probs := SizeSpec()
	mass := func(lo, hi int) float64 { // non-powers in (lo, hi]
		var m float64
		for i, v := range values {
			if _, pow := Table1[v]; pow {
				continue
			}
			if v > lo && v <= hi {
				m += probs[i]
			}
		}
		return m
	}
	cases := []struct {
		lo, hi int
		want   float64
	}{
		{0, 16, 0.049},
		{16, 24, 0.225},
		{24, 32, 0.003},
		{32, 48, 0.009},
		{48, 64, 0.001},
		{64, 96, 0.003},
		{96, 128, 0.005},
	}
	for _, c := range cases {
		if got := mass(c.lo, c.hi); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("non-power mass in (%d,%d] = %g, want %g", c.lo, c.hi, got, c.want)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(GenConfig{NumJobs: 500, Seed: 5})
	b := Generate(GenConfig{NumJobs: 500, Seed: 5})
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("records %d differ: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	a := Generate(GenConfig{NumJobs: 100, Seed: 1})
	b := Generate(GenConfig{NumJobs: 100, Seed: 2})
	same := 0
	for i := range a {
		if a[i].Size == b[i].Size && a[i].Service == b[i].Service {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical logs")
	}
}

func TestGenerateShape(t *testing.T) {
	recs := Default()
	if len(recs) != 39356 {
		t.Errorf("default log has %d jobs", len(recs))
	}
	prev := 0.0
	for i, r := range recs {
		if r.ID != i+1 {
			t.Fatalf("record %d has ID %d", i, r.ID)
		}
		if r.Submit < prev {
			t.Fatal("submit times not nondecreasing")
		}
		prev = r.Submit
		if r.Size < 1 || r.Size > 128 {
			t.Fatalf("size %d out of range", r.Size)
		}
		if r.Service <= 0 {
			t.Fatalf("non-positive service %g", r.Service)
		}
		if r.Killed && r.Service != 900 {
			t.Fatalf("killed job with service %g", r.Service)
		}
	}
}

func TestAnalyzeAgainstPaper(t *testing.T) {
	ls := Analyze(Default())
	if ls.DistinctSizes != 58 {
		t.Errorf("%d distinct sizes, want 58", ls.DistinctSizes)
	}
	if ls.MinSize != 1 || ls.MaxSize != 128 {
		t.Errorf("size range [%d,%d]", ls.MinSize, ls.MaxSize)
	}
	// Sampled fractions should match Table 1 to within binomial noise.
	for p, want := range Table1 {
		if got := ls.PowerOfTwo[p]; math.Abs(got-want) > 0.01 {
			t.Errorf("power %d fraction %.3f, want %.3f", p, got, want)
		}
	}
	if math.Abs(ls.PowerOfTwoMass-0.705) > 0.02 {
		t.Errorf("power-of-two mass %.3f, want ~0.705", ls.PowerOfTwoMass)
	}
	if ls.MeanSize < 22 || ls.MeanSize > 26 {
		t.Errorf("mean size %.2f outside the plausible window around 24", ls.MeanSize)
	}
	if ls.FracServiceUnderKill < 0.85 || ls.FracServiceUnderKill > 1 {
		t.Errorf("fraction under 900 s = %.3f", ls.FracServiceUnderKill)
	}
}

func TestSizeDensity(t *testing.T) {
	recs := []Record{{Size: 1}, {Size: 1}, {Size: 64}}
	sizes, counts := SizeDensity(recs)
	if len(sizes) != 2 || sizes[0] != 1 || sizes[1] != 64 {
		t.Fatalf("sizes = %v", sizes)
	}
	if counts[0] != 2 || counts[1] != 1 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestServiceHistogram(t *testing.T) {
	recs := []Record{{Service: 10}, {Service: 890}, {Service: 1500}}
	h := ServiceHistogram(recs, 900, 9)
	var n int64
	for i := 0; i < h.Bins(); i++ {
		n += h.Count(i)
	}
	if n != 2 {
		t.Errorf("histogram counted %d jobs, want 2 (<=900)", n)
	}
}

func TestFormatTable1(t *testing.T) {
	out := FormatTable1(Analyze(Default()))
	if !strings.Contains(out, "total") || !strings.Contains(out, "0.190") {
		t.Errorf("unexpected Table 1 rendering:\n%s", out)
	}
}

func TestSWFRoundTrip(t *testing.T) {
	recs := Generate(GenConfig{NumJobs: 200, Seed: 8})
	var buf bytes.Buffer
	if err := WriteSWF(&buf, recs, "test header\nsecond line"); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSWF(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("read %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i].ID != recs[i].ID || got[i].Size != recs[i].Size {
			t.Fatalf("record %d: %+v vs %+v", i, got[i], recs[i])
		}
		if math.Abs(got[i].Service-recs[i].Service) > 0.01 {
			t.Fatalf("record %d service %g vs %g", i, got[i].Service, recs[i].Service)
		}
		if math.Abs(got[i].Submit-recs[i].Submit) > 1 {
			t.Fatalf("record %d submit %g vs %g", i, got[i].Submit, recs[i].Submit)
		}
	}
}

func TestReadSWFSkipsCommentsAndInvalidJobs(t *testing.T) {
	in := `; header comment
# another comment

1 0 -1 100.0 4 -1 -1 4 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1
2 5 -1 -1 4 -1 -1 4 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1
3 9 -1 50.0 -1 -1 -1 8 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1
`
	recs, err := ReadSWF(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	// Job 2 has unknown run time and is dropped; job 3 falls back to the
	// requested processor count.
	if len(recs) != 2 {
		t.Fatalf("read %d records, want 2", len(recs))
	}
	if recs[1].Size != 8 {
		t.Errorf("job 3 size %d, want fallback 8", recs[1].Size)
	}
}

func TestReadSWFErrors(t *testing.T) {
	cases := []string{
		"1 2 3",                    // too few fields
		"x 0 -1 1 1 -1 -1 1 -1",    // bad job id
		"1 y -1 1 1 -1 -1 1 -1",    // bad submit
		"1 0 -1 zz 1 -1 -1 1 -1",   // bad run time
		"1 0 -1 1 pp -1 -1 1 -1",   // bad processors
		"1 NaN -1 1 1 -1 -1 1 -1",  // non-finite submit
		"1 -Inf -1 1 1 -1 -1 1 -1", // non-finite submit
		"1 0 -1 NaN 1 -1 -1 1 -1",  // non-finite run time
		"1 0 -1 +Inf 1 -1 -1 1 -1", // non-finite run time
	}
	for _, in := range cases {
		if _, err := ReadSWF(strings.NewReader(in)); err == nil {
			t.Errorf("ReadSWF(%q) succeeded, want error", in)
		}
	}
}

// TestGenerateConfigProperty: any sane config yields records respecting
// the kill limit semantics.
func TestGenerateConfigProperty(t *testing.T) {
	check := func(seed uint64) bool {
		cfg := GenConfig{NumJobs: 200, Seed: seed, KillLimit: 600, WorkingHoursFrac: 0.5}
		for _, r := range Generate(cfg) {
			if r.Killed && r.Service != 600 {
				return false
			}
			if r.Size < 1 || r.Size > 128 || r.Service <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestGeneratePanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative NumJobs did not panic")
		}
	}()
	Generate(GenConfig{NumJobs: -5})
}

func TestFilterMaxSize(t *testing.T) {
	recs := []Record{{ID: 1, Size: 10}, {ID: 2, Size: 64}, {ID: 3, Size: 65}, {ID: 4, Size: 128}}
	out := FilterMaxSize(recs, 64)
	if len(out) != 2 || out[0].ID != 1 || out[1].ID != 2 {
		t.Errorf("filtered %v", out)
	}
}

func TestFilterMaxService(t *testing.T) {
	recs := []Record{{ID: 1, Service: 100}, {ID: 2, Service: 900}, {ID: 3, Service: 901}}
	out := FilterMaxService(recs, 900)
	if len(out) != 2 {
		t.Errorf("filtered %v", out)
	}
}

func TestFilterWindowRebases(t *testing.T) {
	recs := []Record{
		{ID: 1, Submit: 50},
		{ID: 2, Submit: 100},
		{ID: 3, Submit: 150},
		{ID: 4, Submit: 200},
	}
	out := FilterWindow(recs, 100, 200)
	if len(out) != 2 {
		t.Fatalf("filtered %v", out)
	}
	if out[0].Submit != 0 || out[1].Submit != 50 {
		t.Errorf("rebase: %v", out)
	}
	// Original untouched.
	if recs[1].Submit != 100 {
		t.Error("FilterWindow mutated its input")
	}
}

func TestRenumber(t *testing.T) {
	recs := []Record{{ID: 17}, {ID: 3}, {ID: 99}}
	out := Renumber(recs)
	for i, r := range out {
		if r.ID != i+1 {
			t.Errorf("renumbered %v", out)
		}
	}
	if recs[0].ID != 17 {
		t.Error("Renumber mutated its input")
	}
}

func TestFiltersComposeLikeTheDerivation(t *testing.T) {
	// Cutting the trace at size 64 and deriving must equal deriving and
	// cutting the size distribution: the DAS-s-64 equivalence.
	recs := Default()
	cut := FilterMaxSize(recs, 64)
	for _, r := range cut {
		if r.Size > 64 {
			t.Fatal("filter leaked a large job")
		}
	}
	if len(cut) >= len(recs) {
		t.Error("cut removed nothing")
	}
	frac := 1 - float64(len(cut))/float64(len(recs))
	if frac <= 0 || frac > 0.05 {
		t.Errorf("cut removed %.3f of jobs, expected a small fraction", frac)
	}
}
