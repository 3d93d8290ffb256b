package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/storage"
)

// snapshot is the process and cluster counters at one instant.
type snapshot struct {
	virt     time.Duration
	cpu      time.Duration // user + system
	gcCycles uint64
	gcCPU    float64 // seconds
	gcPause  uint64  // ns
	res      [clusterNodes][3]resStat
}

type resStat struct {
	busy time.Duration
	ops  int64
}

var resKinds = [3]string{"disk", "nic", "cpu"}

// processCPU returns the process's user plus system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func takeSnapshot(w workload) snapshot {
	s := snapshot{virt: w.clock(), cpu: processCPU()}
	ms := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(ms)
	s.gcCycles, s.gcCPU = ms[0].Value.Uint64(), ms[1].Value.Float64()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	s.gcPause = mem.PauseTotalNs
	c := w.env().store.Cluster()
	for i := 0; i < clusterNodes; i++ {
		n := c.Node(cluster.NodeID(i))
		for k, r := range [3]*sim.Resource{n.Disk(), n.NIC(), n.CPU()} {
			s.res[i][k].busy, s.res[i][k].ops = r.Stats()
		}
	}
	return s
}

// result is one measurement window.
type result struct {
	m          *meter
	elapsed    time.Duration
	start, end snapshot
	marks      []mark // at the window start and after each round
}

// mark is the window's counters at a round boundary.
type mark struct {
	ops   int
	bytes int64
	wall  time.Duration // since the window started
	virt  time.Duration
	cpu   time.Duration
	alloc uint64
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

func (r *result) mark(w workload) {
	metrics.Read(allocSample)
	r.marks = append(r.marks, mark{
		ops: len(r.m.samples), bytes: r.m.bytes, wall: time.Since(r.m.start),
		virt: w.clock(), cpu: processCPU(), alloc: allocSample[0].Value.Uint64(),
	})
}

// measure runs whole rounds until the window has passed and at least
// minRounds rounds are done.
func measure(w workload, window time.Duration, minRounds int) (*result, error) {
	runtime.GC()
	r := &result{}
	r.start = takeSnapshot(w)
	r.m = newMeter()
	w.startWindow(r.m)
	r.mark(w)
	for time.Since(r.m.start) < window || len(r.marks) <= minRounds {
		if err := w.round(r.m); err != nil {
			return nil, err
		}
		r.mark(w)
	}
	r.elapsed = time.Since(r.m.start)
	r.end = takeSnapshot(w)
	return r, nil
}

// perRound returns the median over the window's rounds of f applied to
// the counters at each round's start and end. Every round carries its own
// background work, so a median over rounds still counts the pauses, while
// a burst of noise from outside the process moves it less than it moves a
// total.
func (r *result) perRound(f func(a, b mark) float64) float64 {
	var xs []float64
	for i := 1; i < len(r.marks); i++ {
		xs = append(xs, f(r.marks[i-1], r.marks[i]))
	}
	return median(xs)
}

func (r *result) attempted() (attempted, failed int) {
	return len(r.m.samples), r.m.failed()
}

func (r *result) ops() float64 { return float64(len(r.m.samples)) }

func (r *result) opsPerSec() float64 { return r.ops() / r.elapsed.Seconds() }

func (r *result) virtSpan() time.Duration { return r.end.virt - r.start.virt }

// steady checks that the virtual p50 latency over the first and the last
// tenth of the window agree within bound. It catches clocks that restart at
// zero and warm-up that had not finished. When every round records the same
// number of ops (a fixed mix, as in hpc-ckpt and spark-suite), a tenth is
// cut at a round boundary so both tenths hold the same mix.
func (r *result) steady(bound float64) error {
	n := len(r.m.samples)
	cycle := r.marks[1].ops
	for i := 2; i < len(r.marks); i++ {
		if r.marks[i].ops-r.marks[i-1].ops != cycle {
			cycle = 1
			break
		}
	}
	k := max(cycle, n/10/cycle*cycle)
	if 2*k > n {
		return fmt.Errorf("steady state: %d ops are too few to compare tenths", n)
	}
	a, b := median(virtOf(r.m.samples[:k])), median(virtOf(r.m.samples[n-k:]))
	if a <= 0 || b/a-1 > bound || a/b-1 > bound {
		return fmt.Errorf("steady state: virtual p50 %.4g ms over the first tenth, %.4g ms over the last (bound %.2f)",
			a/1e6, b/1e6, bound)
	}
	return nil
}

// tailBlockOps is the fewest ops a block of the window holds for the tail
// metrics; a block also holds at least minRounds rounds.
const tailBlockOps = 500

// blockTail returns the median over blocks of the window of tail() within
// each block, as a value and a percentile, and the number of blocks. The
// window is cut at round boundaries into as many blocks as it has
// tailBlockOps ops and minRounds rounds to fill. Over a whole spark-suite
// window of about 3000 jobs, the 11th-largest latency was set by how many
// times the host stalled the process, and it moved between 36 and 51 ms
// from run to run; within blocks of 500 it is the slowest jobs' own time.
// A window too short for two blocks is one block, so the tails of
// hpc-ckpt and object-zipf stay on their restart and checkpoint pauses.
func (r *result) blockTail(of func([]sample) []int64) (value, pct float64, blocks int) {
	n := len(r.m.samples)
	k := max(1, min(n/tailBlockOps, (len(r.marks)-1)/minRounds))
	var vals, pcts []float64
	start := 0
	for j := 1; j <= k; j++ {
		end := n
		if j < k {
			i := slices.IndexFunc(r.marks, func(m mark) bool { return m.ops >= j*n/k })
			end = r.marks[i].ops
		}
		if end > start {
			v, p := tail(of(r.m.samples[start:end]))
			vals, pcts = append(vals, v), append(pcts, p)
		}
		start = end
	}
	return median(vals), median(pcts), len(vals)
}

func virtOf(ss []sample) []int64 {
	out := make([]int64, len(ss))
	for i, s := range ss {
		out[i] = s.virt
	}
	return out
}

func wallOf(ss []sample) []int64 {
	out := make([]int64, len(ss))
	for i, s := range ss {
		out[i] = s.wall
	}
	return out
}

// endToEnd computes the end-to-end metrics of an untraced window, in the
// order BENCHMARK.json lists them, plus the figures that go with them.
func endToEnd(w workload, r *result, setups []time.Duration) ([]metric, map[string]string, error) {
	m := r.m
	wall, virt := wallOf(m.samples), virtOf(m.samples)
	latTail, latPct, blocks := r.blockTail(wallOf)
	vlatTail, vlatPct, _ := r.blockTail(virtOf)
	attempted, failed := r.attempted()

	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	live, err := w.env().liveBytes(storage.NewContext())
	if err != nil {
		return nil, nil, fmt.Errorf("live bytes: %w", err)
	}
	out := []metric{
		{"setup_s", median(nanos(setups)) / 1e9, "s"},
		{"ops_per_s", r.perRound(func(a, b mark) float64 { return float64(b.ops-a.ops) / (b.wall - a.wall).Seconds() }), "1/s"},
		{"mb_per_s", r.perRound(func(a, b mark) float64 { return float64(b.bytes-a.bytes) / 1e6 / (b.wall - a.wall).Seconds() }), "MB/s"},
		{"lat_p50_ms", median(wall) / 1e6, "ms"},
		{"lat_tail_ms", latTail / 1e6, "ms"},
		{"vlat_p50_ms", median(virt) / 1e6, "ms"},
		{"vlat_tail_ms", vlatTail / 1e6, "ms"},
		{"vmb_per_s", r.perRound(func(a, b mark) float64 { return float64(b.bytes-a.bytes) / 1e6 / (b.virt - a.virt).Seconds() }), "MB/s"},
		{"cpu_ms_per_op", r.perRound(func(a, b mark) float64 { return float64(b.cpu-a.cpu) / 1e6 / float64(b.ops-a.ops) }), "ms"},
		{"alloc_kb_per_op", r.perRound(func(a, b mark) float64 { return float64(b.alloc-a.alloc) / 1024 / float64(b.ops-a.ops) }), "KiB"},
		{"heap_per_live_byte", float64(mem.HeapInuse) / float64(live), "ratio"},
	}
	info := map[string]string{
		"samples":          fmt.Sprint(len(m.samples)),
		"tail_blocks":      fmt.Sprint(blocks),
		"lat_tail_pct":     fmt.Sprintf("%.4f", latPct),
		"vlat_tail_pct":    fmt.Sprintf("%.4f", vlatPct),
		"fail_ratio":       fmt.Sprintf("%g (%d of %d)", float64(failed)/float64(attempted), failed, attempted),
		"live_bytes":       fmt.Sprint(live),
		"window_s":         fmt.Sprintf("%.3f", r.elapsed.Seconds()),
		"checkpoints":      fmt.Sprint(len(m.ckpt)),
		"checkpoint_ms":    fmt.Sprintf("%.3f", median(nanos(m.ckpt))/1e6),
		"rounds":           fmt.Sprint(len(r.marks) - 1),
		"ops_per_s_total":  fmt.Sprintf("%.4g", r.opsPerSec()),
		"restart_ms":       fmt.Sprintf("%.3f", median(nanos(m.restart))/1e6),
		"restarts":         fmt.Sprint(len(m.restart)),
		"setups":           fmt.Sprint(len(setups)),
		"virtual_window_s": fmt.Sprintf("%.3f", r.virtSpan().Seconds()),
	}
	return out, info, nil
}
