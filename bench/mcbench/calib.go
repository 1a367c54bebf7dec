package main

import (
	"runtime"
	"sync"
	"time"
)

// The host this benchmark runs on is shared: for minutes at a time other
// tenants keep its cores busy, and the simulator then runs up to three
// times slower. The end-to-end times are therefore normalized: around
// every repetition the parent times a fixed piece of work, calibrate,
// that depends only on the Go toolchain and the host, and scales the
// repetition's times by calReference over that calibration time. A host
// that runs slower for a while then moves the benchmark's numbers much
// less, while a faster simulator still shows in full, since the
// calibration never calls it. On a quiet host the scaling adds a little
// noise of its own; the run's median over its repetitions absorbs it.

// calReference is calibrate's time on a quiet 2-vCPU Intel Xeon (KVM)
// host, in seconds: the normalized times are seconds on that host.
const calReference = 0.3

const (
	calEvents = 8192      // pending events of the heap kernel: 128 KB, within L2
	calSteps  = 800_000   // heap kernel pops and pushes
	calAllocs = 1_200_000 // allocation kernel objects
	calLive   = 1 << 16   // objects the allocation kernel keeps alive
)

// calSink keeps the calibration's results alive.
var calSink int64

// calibrate runs the calibration work once on every processor at the
// same time and returns how long it took, in seconds.
func calibrate() float64 {
	procs := runtime.GOMAXPROCS(0)
	sums := make([]int64, procs)
	start := time.Now()
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			sums[p] = calHeap(uint64(p)+1) + calAlloc()
		}(p)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	for _, s := range sums {
		calSink += s
	}
	return elapsed
}

type calEvent struct {
	t   float64
	seq uint64
}

// calHeap is a hold model on a binary heap: branchy code on a working set
// that fits the L2 cache, like the simulator's event and scheduling loops.
func calHeap(seed uint64) int64 {
	x := seed*0x9e3779b97f4a7c15 | 1
	uniform := func() float64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return float64(x>>11) / (1 << 53)
	}
	less := func(a, b calEvent) bool { return a.t < b.t || (a.t == b.t && a.seq < b.seq) }
	h := make([]calEvent, 0, calEvents)
	push := func(e calEvent) {
		h = append(h, e)
		for i := len(h) - 1; i > 0; {
			p := (i - 1) / 2
			if !less(h[i], h[p]) {
				break
			}
			h[i], h[p] = h[p], h[i]
			i = p
		}
	}
	pop := func() calEvent {
		top := h[0]
		h[0] = h[len(h)-1]
		h = h[:len(h)-1]
		for i := 0; ; {
			m, l := i, 2*i+1
			if l < len(h) && less(h[l], h[m]) {
				m = l
			}
			if r := l + 1; r < len(h) && less(h[r], h[m]) {
				m = r
			}
			if m == i {
				break
			}
			h[i], h[m] = h[m], h[i]
			i = m
		}
		return top
	}
	for i := 0; i < calEvents; i++ {
		push(calEvent{t: uniform(), seq: uint64(i)})
	}
	var sum int64
	for i := 0; i < calSteps; i++ {
		e := pop()
		sum += int64(e.seq & 7)
		push(calEvent{t: e.t + uniform(), seq: uint64(calEvents + i)})
	}
	return sum
}

type calObject struct {
	a, b  int64
	prev  *calObject
	parts []int
}

// calAlloc churns small objects through the garbage collector with a
// window of them alive, like the simulator's per-job garbage.
func calAlloc() int64 {
	live := make([]*calObject, calLive)
	var prev *calObject
	for i := 0; i < calAllocs; i++ {
		o := &calObject{a: int64(i), prev: prev, parts: make([]int, 4)}
		live[i&(calLive-1)] = o
		prev = o
		if i&7 == 0 {
			prev = nil
		}
	}
	return live[0].a
}

// speed tracks the calibrations taken between repetitions.
type speed struct{ last float64 }

// factor calibrates again and returns the scale for the times measured
// since the previous calibration: calReference over the mean of the two
// calibrations around them.
func (s *speed) factor() float64 {
	c := calibrate()
	prev := s.last
	if prev == 0 {
		prev = c
	}
	s.last = c
	return calReference / ((prev + c) / 2)
}
