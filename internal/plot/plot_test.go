package plot

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestSeriesAdd(t *testing.T) {
	var s Series
	s.Add(1, 2)
	s.Add(3, 4)
	if len(s.X) != 2 || s.X[1] != 3 || s.Y[1] != 4 {
		t.Errorf("series %+v", s)
	}
}

func TestChartContainsMarksAndLegend(t *testing.T) {
	series := []Series{
		{Name: "alpha", X: []float64{0, 0.5, 1}, Y: []float64{10, 20, 30}},
		{Name: "beta", X: []float64{0, 0.5, 1}, Y: []float64{30, 20, 10}},
	}
	out := Chart("test chart", "util", "resp", series, 40, 10)
	for _, want := range []string{"test chart", "alpha", "beta", "x: util, y: resp", "*", "o"} {
		if !strings.Contains(out, want) {
			t.Errorf("chart missing %q:\n%s", want, out)
		}
	}
	// 10 grid rows + axis + labels.
	if lines := strings.Count(out, "\n"); lines < 13 {
		t.Errorf("chart has %d lines", lines)
	}
}

func TestChartEmpty(t *testing.T) {
	out := Chart("t", "x", "y", nil, 40, 10)
	if !strings.Contains(out, "no data") {
		t.Errorf("empty chart rendering: %q", out)
	}
}

func TestChartSkipsNonFinite(t *testing.T) {
	series := []Series{{
		Name: "s",
		X:    []float64{0, 1, 2},
		Y:    []float64{1, math.NaN(), math.Inf(1)},
	}}
	out := Chart("", "x", "y", series, 30, 8)
	if strings.Contains(out, "no data") {
		t.Error("finite point should render")
	}
}

func TestChartSinglePoint(t *testing.T) {
	series := []Series{{Name: "s", X: []float64{5}, Y: []float64{7}}}
	out := Chart("", "", "", series, 30, 8)
	if !strings.Contains(out, "*") {
		t.Error("single point not drawn")
	}
}

func TestChartDegenerateDimensions(t *testing.T) {
	series := []Series{{Name: "s", X: []float64{1, 2}, Y: []float64{3, 4}}}
	out := Chart("", "", "", series, 1, 1) // clamped to sane minimums
	if out == "" {
		t.Error("degenerate chart empty")
	}
}

func TestWriteCSV(t *testing.T) {
	var buf bytes.Buffer
	err := WriteCSV(&buf, []Series{
		{Name: "a,b", X: []float64{1}, Y: []float64{2}},
		{Name: "plain", X: []float64{3.5}, Y: []float64{4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	want := "series,x,y\n\"a,b\",1,2\nplain,3.5,4\n"
	if got != want {
		t.Errorf("CSV = %q, want %q", got, want)
	}
}

func TestCSVEscape(t *testing.T) {
	cases := map[string]string{
		"plain":     "plain",
		"a,b":       `"a,b"`,
		`quo"te`:    `"quo""te"`,
		"line\nfee": "\"line\nfee\"",
	}
	for in, want := range cases {
		if got := csvEscape(in); got != want {
			t.Errorf("csvEscape(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestTable(t *testing.T) {
	out := Table([][]string{
		{"name", "value"},
		{"alpha", "1"},
		{"b", "22"},
	})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table lines: %q", out)
	}
	if !strings.HasPrefix(lines[0], "name") || !strings.Contains(lines[0], "value") {
		t.Errorf("header %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "---") {
		t.Errorf("separator %q", lines[1])
	}
	// Ragged rows are padded, not dropped.
	out = Table([][]string{{"a", "b"}, {"only"}})
	if !strings.Contains(out, "only") {
		t.Error("ragged row missing")
	}
	if Table(nil) != "" {
		t.Error("empty table should render empty")
	}
}
