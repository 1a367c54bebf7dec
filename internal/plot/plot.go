// Package plot renders experiment output: ASCII line charts for the
// terminal (the response-time-versus-utilization curves of Figs. 3-7) and
// CSV / gnuplot-ready data files for external plotting.
package plot

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Series is one named curve.
type Series struct {
	Name string
	X    []float64
	Y    []float64
	// Saturated marks the last point as a saturation terminator: the
	// run behind it diverged, so its measured values depend on how far
	// the run was allowed to proceed. Plots still draw it (the curve
	// visibly shooting up is the paper's idiom), but summaries must not
	// treat it as a stable operating point.
	Saturated bool
}

// Add appends a point.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// markers are assigned to series in order.
var markers = []byte{'*', 'o', '+', 'x', '#', '@', '%', '&'}

// Chart draws the series on a width x height character grid with labelled
// axes. Non-finite points are skipped. An empty chart renders a note
// instead of axes.
func Chart(title, xlabel, ylabel string, series []Series, width, height int) string {
	if width < 20 {
		width = 60
	}
	if height < 5 {
		height = 20
	}
	xmin, xmax := math.Inf(1), math.Inf(-1)
	ymin, ymax := math.Inf(1), math.Inf(-1)
	points := 0
	for _, s := range series {
		for i := range s.X {
			x, y := s.X[i], s.Y[i]
			if !finite(x) || !finite(y) {
				continue
			}
			points++
			xmin, xmax = math.Min(xmin, x), math.Max(xmax, x)
			ymin, ymax = math.Min(ymin, y), math.Max(ymax, y)
		}
	}
	var b strings.Builder
	if title != "" {
		fmt.Fprintf(&b, "%s\n", title)
	}
	if points == 0 {
		b.WriteString("(no data)\n")
		return b.String()
	}
	if xmax == xmin {
		xmax = xmin + 1
	}
	if ymax == ymin {
		ymax = ymin + 1
	}
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for si, s := range series {
		mark := markers[si%len(markers)]
		for i := range s.X {
			x, y := s.X[i], s.Y[i]
			if !finite(x) || !finite(y) {
				continue
			}
			col := int(math.Round((x - xmin) / (xmax - xmin) * float64(width-1)))
			row := height - 1 - int(math.Round((y-ymin)/(ymax-ymin)*float64(height-1)))
			grid[row][col] = mark
		}
	}
	yaxisw := 10
	for r, row := range grid {
		var label string
		switch r {
		case 0:
			label = fmtTick(ymax)
		case height - 1:
			label = fmtTick(ymin)
		case height / 2:
			label = fmtTick((ymin + ymax) / 2)
		}
		fmt.Fprintf(&b, "%*s |%s\n", yaxisw, label, string(row))
	}
	fmt.Fprintf(&b, "%*s +%s\n", yaxisw, "", strings.Repeat("-", width))
	lo, hi := fmtTick(xmin), fmtTick(xmax)
	pad := width - len(lo) - len(hi)
	if pad < 1 {
		pad = 1
	}
	fmt.Fprintf(&b, "%*s  %s%s%s\n", yaxisw, "", lo, strings.Repeat(" ", pad), hi)
	if xlabel != "" || ylabel != "" {
		fmt.Fprintf(&b, "%*s  x: %s, y: %s\n", yaxisw, "", xlabel, ylabel)
	}
	var legend []string
	for si, s := range series {
		legend = append(legend, fmt.Sprintf("%c %s", markers[si%len(markers)], s.Name))
	}
	fmt.Fprintf(&b, "%*s  legend: %s\n", yaxisw, "", strings.Join(legend, "   "))
	return b.String()
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

func fmtTick(v float64) string {
	av := math.Abs(v)
	switch {
	case av >= 1000:
		return fmt.Sprintf("%.0f", v)
	case av >= 10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// WriteCSV emits the series in long form: series,x,y — one row per point.
func WriteCSV(w io.Writer, series []Series) error {
	if _, err := fmt.Fprintln(w, "series,x,y"); err != nil {
		return err
	}
	for _, s := range series {
		for i := range s.X {
			if _, err := fmt.Fprintf(w, "%s,%g,%g\n", csvEscape(s.Name), s.X[i], s.Y[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

// Table renders rows with left-aligned, padded columns. The first row is
// treated as the header and underlined.
func Table(rows [][]string) string {
	if len(rows) == 0 {
		return ""
	}
	cols := 0
	for _, r := range rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	widths := make([]int, cols)
	for _, r := range rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	for ri, r := range rows {
		for i := 0; i < cols; i++ {
			c := ""
			if i < len(r) {
				c = r[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
		if ri == 0 {
			total := 0
			for _, w := range widths {
				total += w
			}
			b.WriteString(strings.Repeat("-", total+2*(cols-1)))
			b.WriteByte('\n')
		}
	}
	return b.String()
}
