package dastrace

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// FuzzReadSWF checks that the SWF parser never panics on arbitrary input
// and that every record it does produce satisfies the documented
// invariants (positive size, positive finite service time, finite submit
// time).
func FuzzReadSWF(f *testing.F) {
	f.Add("1 0 -1 100.0 4 -1 -1 4 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1\n")
	f.Add("; comment only\n")
	f.Add("")
	f.Add("1 2 3\n")
	f.Add("x y z w v u t s r\n")
	f.Add("1 0 -1 1e308 4 -1 -1 4 -1\n")
	f.Add("-1 -1 -1 -1 -1 -1 -1 -1 -1\n")
	f.Add("1 0 -1 NaN 4 -1 -1 4 -1\n")
	f.Add("1 Inf -1 100 4 -1 -1 4 -1\n")
	f.Fuzz(func(t *testing.T, input string) {
		recs, err := ReadSWF(strings.NewReader(input))
		if err != nil {
			return
		}
		for _, r := range recs {
			if r.Size <= 0 || !(r.Service > 0) || math.IsInf(r.Service, 0) ||
				math.IsNaN(r.Submit) || math.IsInf(r.Submit, 0) {
				t.Errorf("parser produced invalid record %+v from %q", r, input)
			}
		}
	})
}

// FuzzSWFRoundTrip checks Write-then-Read stability for arbitrary record
// values within the format's domain.
func FuzzSWFRoundTrip(f *testing.F) {
	f.Add(1, 100.0, 16, 350.5)
	f.Add(9999, 0.0, 1, 0.01)
	f.Fuzz(func(t *testing.T, id int, submit float64, size int, service float64) {
		if id <= 0 || size <= 0 || size > 1<<20 || service <= 0 ||
			submit < 0 || submit > 1e12 || service > 1e12 {
			t.Skip()
		}
		rec := Record{ID: id, Submit: submit, Size: size, Service: service}
		var buf bytes.Buffer
		if err := WriteSWF(&buf, []Record{rec}, ""); err != nil {
			t.Fatal(err)
		}
		got, err := ReadSWF(&buf)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if len(got) != 1 || got[0].ID != id || got[0].Size != size {
			t.Fatalf("round trip: %+v -> %+v", rec, got)
		}
	})
}
