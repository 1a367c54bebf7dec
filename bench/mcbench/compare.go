package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// Verdicts of compare.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	worse      = "worse"
	unresolved = "unresolved"
)

// minPairs is the number of parent/change pairs a verdict needs.
const minPairs = 10

// compareMain implements `mcbench compare parent.json change.json`: both
// files hold the -json records of alternating runs of the parent and the
// change, paired in order per workload. It prints each side's median and
// quartiles per workload and metric, the change's win fraction and a
// verdict, and exits 1 when any metric got worse.
func compareMain(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("mcbench compare", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: mcbench compare parent.json change.json")
		return 2
	}
	parent, err := readRecords(fs.Arg(0))
	if err == nil {
		var change map[string][]record
		if change, err = readRecords(fs.Arg(1)); err == nil {
			if compare(out, parent, change) {
				return 1
			}
			return 0
		}
	}
	fmt.Fprintln(os.Stderr, "mcbench:", err)
	return 1
}

// readRecords reads a -json file and groups its records by workload, in
// file order.
func readRecords(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() //detlint:ignore closecheck read-only file: a close error loses nothing
	out := make(map[string][]record)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for line := 1; sc.Scan(); line++ {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out[rec.Workload] = append(out[rec.Workload], rec)
	}
	return out, sc.Err()
}

// compare prints the comparison and reports whether any metric got worse.
func compare(out io.Writer, parent, change map[string][]record) bool {
	var names []string
	for w := range parent {
		if _, ok := change[w]; ok {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	anyWorse := false
	fmt.Fprintf(out, "%-15s %-32s %-34s %-34s %-9s %s\n", "workload", "metric",
		"parent median [q1, q3]", "change median [q1, q3]", "wins", "verdict")
	for _, w := range names {
		for _, d := range append(append(append([]metricDef(nil), endToEnd...), reportOnly...), perLayer...) {
			p, c := samples(parent[w], d.name), samples(change[w], d.name)
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			v, wins, pairs := verdict(d, p, c)
			anyWorse = anyWorse || v == worse
			p1, p2, p3 := quartiles(p)
			c1, c2, c3 := quartiles(c)
			fmt.Fprintf(out, "%-15s %-32s %-34s %-34s %-9s %s\n", w, d.name,
				fmt.Sprintf("%.6g [%.6g, %.6g] %s", p2, p1, p3, d.unit),
				fmt.Sprintf("%.6g [%.6g, %.6g] %s", c2, c1, c3, d.unit),
				fmt.Sprintf("%d/%d", wins, pairs), v)
		}
	}
	return anyWorse
}

func samples(recs []record, name string) []float64 {
	var xs []float64
	for _, r := range recs {
		if s, ok := r.Metrics[name]; ok {
			xs = append(xs, s.Value)
		}
	}
	return xs
}

// verdict judges change samples c against parent samples p, paired in
// order:
//
//   - improved: the change wins at least nine tenths of the pairs (ties
//     count for neither side) and the medians differ, in the change's
//     favour, by more than the parent's interquartile range;
//   - unresolved: fewer than minPairs pairs, or either side's spread
//     (interquartile range over median) is wider than the bound — unless
//     every change sample beats every parent sample;
//   - worse: the change's median is worse than the parent's by more than
//     the bound (any amount for a bound of 0);
//   - unchanged: otherwise.
//
// Per-layer metrics have no bound: they are improved or unchanged.
func verdict(d metricDef, p, c []float64) (v string, wins, pairs int) {
	pairs = len(p)
	if len(c) < pairs {
		pairs = len(c)
	}
	better := func(a, b float64) bool { // a better than b
		if d.better == "higher" {
			return a > b
		}
		return a < b
	}
	for i := 0; i < pairs; i++ {
		if better(c[i], p[i]) {
			wins++
		}
	}
	if pairs < minPairs {
		return unresolved, wins, pairs
	}
	p1, p2, p3 := quartiles(p)
	c1, c2, c3 := quartiles(c)
	if 10*wins >= 9*pairs && better(c2, p2) && math.Abs(c2-p2) > p3-p1 {
		return improved, wins, pairs
	}
	if d.moves != "" { // a per-layer metric
		return unchanged, wins, pairs
	}
	allBetter := true
	for _, x := range c {
		for _, y := range p {
			allBetter = allBetter && better(x, y)
		}
	}
	spread := math.Max((p3-p1)/math.Abs(p2), (c3-c1)/math.Abs(c2))
	if d.bound > 0 && spread > d.bound {
		if allBetter {
			return unchanged, wins, pairs
		}
		return unresolved, wins, pairs
	}
	if better(p2, c2) && math.Abs(c2-p2) > d.bound*math.Abs(p2) {
		return worse, wins, pairs
	}
	return unchanged, wins, pairs
}
