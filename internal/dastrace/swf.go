package dastrace

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// The trace file format follows the Standard Workload Format (SWF) used by
// the Parallel Workloads Archive: one job per line, 18 whitespace-separated
// fields, -1 for unknown values, and ';' comment lines carrying header
// metadata. Only the fields the model needs are populated:
//
//	 1 job number
//	 2 submit time (s)
//	 4 run time (s)
//	 5 number of allocated processors
//	 8 requested number of processors
//
// All other fields are written as -1. The reader accepts any SWF file and
// extracts the same fields, so real archive traces can be inspected with
// cmd/mctrace as well.

const swfFields = 18

// WriteSWF writes records to w in Standard Workload Format.
func WriteSWF(w io.Writer, recs []Record, header string) error {
	bw := bufio.NewWriter(w)
	if header != "" {
		for _, line := range strings.Split(strings.TrimRight(header, "\n"), "\n") {
			if _, err := fmt.Fprintf(bw, "; %s\n", line); err != nil {
				return err
			}
		}
	}
	for _, r := range recs {
		fields := make([]string, swfFields)
		for i := range fields {
			fields[i] = "-1"
		}
		fields[0] = strconv.Itoa(r.ID)
		fields[1] = strconv.FormatFloat(r.Submit, 'f', 0, 64)
		fields[3] = strconv.FormatFloat(r.Service, 'f', 2, 64)
		fields[4] = strconv.Itoa(r.Size)
		fields[7] = strconv.Itoa(r.Size)
		if _, err := fmt.Fprintln(bw, strings.Join(fields, " ")); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// errNotFinite rejects the NaN and infinite times strconv.ParseFloat
// accepts: NaN passes no range check (every comparison with it is false)
// and no simulation clock can reach an infinite time.
var errNotFinite = errors.New("not a finite number")

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// ReadSWF parses a Standard Workload Format stream. Comment lines (';' or
// '#') are skipped. Jobs with unknown (-1) or non-positive size or run time
// are dropped, as is conventional when deriving distributions from archive
// traces. It returns an error for structurally malformed lines and for
// non-finite (NaN or infinite) submit or run times.
func ReadSWF(r io.Reader) ([]Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	var recs []Record
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, ";") || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 8 {
			return nil, fmt.Errorf("dastrace: line %d: %d fields, want >= 8", lineNo, len(fields))
		}
		id, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("dastrace: line %d: job number %q: %v", lineNo, fields[0], err)
		}
		submit, err := strconv.ParseFloat(fields[1], 64)
		if err == nil && !isFinite(submit) {
			err = errNotFinite
		}
		if err != nil {
			return nil, fmt.Errorf("dastrace: line %d: submit time %q: %v", lineNo, fields[1], err)
		}
		run, err := strconv.ParseFloat(fields[3], 64)
		if err == nil && !isFinite(run) {
			err = errNotFinite
		}
		if err != nil {
			return nil, fmt.Errorf("dastrace: line %d: run time %q: %v", lineNo, fields[3], err)
		}
		procs, err := strconv.Atoi(fields[4])
		if err != nil {
			return nil, fmt.Errorf("dastrace: line %d: processors %q: %v", lineNo, fields[4], err)
		}
		if procs <= 0 {
			// Fall back to the requested processor count (field 8).
			if req, err := strconv.Atoi(fields[7]); err == nil {
				procs = req
			}
		}
		if procs <= 0 || run <= 0 {
			continue
		}
		recs = append(recs, Record{ID: id, Submit: submit, Size: procs, Service: run})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return recs, nil
}
