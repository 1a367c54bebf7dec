package main

import (
	"bytes"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// progressLog is the experiments.Params.Progress writer the benchmark owns.
// It counts the completed sweep-point lines and timestamps them, and the
// workloads stamp the completion of their other units of work (a single
// simulation run) through stamp. A nil *progressLog records nothing.
type progressLog struct {
	mu      sync.Mutex
	start   time.Time
	partial []byte
	points  int       // sweep-point lines
	stamps  []float64 // completion of every unit of work, seconds from start
}

// isPointLine reports whether line is in the format experiments prints
// per completed sweep point:
//
//	<label>: util <u> -> response <r> s (<done>/<total> points)
//	<label>: util <u> saturated (<done>/<total> points)
//	<label>: util <u> failed: <error>
func isPointLine(line string) bool {
	_, rest, ok := strings.Cut(line, ": util ")
	if !ok {
		return false
	}
	num, rest, ok := strings.Cut(rest, " ")
	if _, err := strconv.ParseFloat(num, 64); !ok || err != nil {
		return false
	}
	return strings.HasPrefix(rest, "-> response ") || strings.HasPrefix(rest, "saturated") ||
		strings.HasPrefix(rest, "failed: ")
}

func (p *progressLog) Write(b []byte) (int, error) {
	now := time.Since(p.start).Seconds()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.partial = append(p.partial, b...)
	for {
		i := bytes.IndexByte(p.partial, '\n')
		if i < 0 {
			break
		}
		if isPointLine(string(p.partial[:i])) {
			p.points++
			p.stamps = append(p.stamps, now)
		}
		p.partial = p.partial[i+1:]
	}
	return len(b), nil
}

// stamp records the completion of one unit of work that prints no
// progress line.
func (p *progressLog) stamp() {
	if p == nil {
		return
	}
	now := time.Since(p.start).Seconds()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stamps = append(p.stamps, now)
}

// tail returns the time the repetition ran on after the procs-th-last unit
// of work completed: with procs workers, from then on at least one of them
// sat idle. wall is the repetition's length in seconds.
func tail(stamps []float64, wall float64, procs int) float64 {
	if len(stamps) < procs {
		return wall
	}
	s := append([]float64(nil), stamps...)
	sort.Float64s(s)
	return wall - s[len(s)-procs]
}
