package main

import (
	"slices"
	"time"
)

// sample is one completed workload op.
type sample struct {
	done int64 // ns since the window started, for ordering
	wall int64 // ns from the client's previous completion to this one
	virt int64 // virtual ns over the same stretch
	bad  bool  // the op failed or read wrong bytes
}

// meter collects one measurement window.
type meter struct {
	start   time.Time
	samples []sample
	bytes   int64 // user bytes moved through the workload's front-end API
	written int64 // the written part of bytes

	// Background work, by wall time.
	ckpt       []time.Duration
	recoveries []time.Duration
	restart    []time.Duration // crash through verified read-back

	// WAL accounting around checkpoints (see the wal.* metrics).
	walGrowth     int64   // log bytes appended between consecutive checkpoints
	walGrowthUser int64   // user bytes written over the same stretches
	walRewritten  []int64 // log size right after each checkpoint
	recoverBytes  int64   // log bytes the restarts replayed
	lastPost      int64   // log size right after the previous checkpoint, -1 before the first
	writtenAtPost int64   // written at that checkpoint
}

func newMeter() *meter { return &meter{start: time.Now(), lastPost: -1} }

// failed counts the ops that failed or read wrong bytes.
func (m *meter) failed() int {
	n := 0
	for _, s := range m.samples {
		if s.bad {
			n++
		}
	}
	return n
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for none; xs is sorted in place.
func median[T int64 | float64](xs []T) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	n := len(xs)
	if n%2 == 1 {
		return float64(xs[n/2])
	}
	return (float64(xs[n/2-1]) + float64(xs[n/2])) / 2
}

// tail returns the highest percentile of xs with at least ten samples
// beyond it, as its value and the percentile; xs is sorted in place. With
// ten samples or fewer it returns the maximum.
func tail(xs []int64) (value float64, pct float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	slices.Sort(xs)
	if n <= 10 {
		return float64(xs[n-1]), 100
	}
	return float64(xs[n-11]), 100 * float64(n-10) / float64(n)
}

// nanos converts durations for median and tail.
func nanos(ds []time.Duration) []int64 {
	out := make([]int64, len(ds))
	for i, d := range ds {
		out[i] = int64(d)
	}
	return out
}
