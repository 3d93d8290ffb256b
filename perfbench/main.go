// Command perfbench is the repository's end-to-end benchmark: it drives one
// blob.Store on a simulated 5-node cluster with one of three workloads
// (hpc-ckpt, spark-suite, object-zipf), checks every byte the workload
// reads, and prints the end-to-end metrics, or with --trace 1 the per-layer
// metrics of a traced run. See README.md for the workloads and metrics.
//
// Run it from the repository root, through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload hpc-ckpt --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A failed check prints
// "correct": false and exits with status 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"maps"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"time"
)

// workload is one closed-loop traffic mix over its own store.
type workload interface {
	// round runs one cycle of ops ending at a barrier, with the cycle's
	// background work (checkpoint, restart), recording into m.
	round(m *meter) error
	// startWindow marks the start of a measurement window: the next op's
	// latency counts from now.
	startWindow(m *meter)
	// clock returns the clients' joined virtual time.
	clock() time.Duration
	// setTracer switches the workload to the traced front-ends, or back to
	// the plain ones for nil.
	setTracer(tr *tracer)
	env() *env
}

var workloadSetups = map[string]func(seed uint64) (workload, error){
	"hpc-ckpt":    newHPC,
	"spark-suite": newSpark,
	"object-zipf": newZipf,
}

const (
	// A run sets its workload up at least setupRuns times and for at least
	// setupTime; setup_s is the median, and the last store set up is the
	// one measured. Quick set-ups repeat many times, so their median holds.
	setupRuns = 3
	setupTime = 2 * time.Second
	// warmup is the least wall time run before measuring, in whole rounds:
	// the first rounds on a fresh store are slower (heap growth, pools).
	warmup = time.Second
	// minRounds is the fewest rounds a measurement window holds, even if it
	// runs past --seconds: each round ends in a pause, lat_tail_ms needs 11
	// samples beyond it, and an object-zipf pause holds up two requests.
	minRounds = 8
	// unattributedBound caps the share of traced root time that no layer
	// span covers; above it the per-layer numbers do not explain the run.
	unattributedBound = 0.25
	// The traced window is this fraction of --seconds: every span stays in
	// memory until the run ends, and object-zipf makes about 400k a second.
	tracedShare = 4
	outDir      = ".bench_out"
)

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "hpc-ckpt, spark-suite or object-zipf")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "length of one measurement window")
	trace := flag.Int("trace", 0, "1 for the traced run and per-layer metrics")
	flag.Parse()
	setup, ok := workloadSetups[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	bounds, err := loadBounds("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	host := fingerprint()
	fmt.Printf("perfbench %s seed=%d seconds=%d trace=%d\n", *name, *seed, *seconds, *trace)
	fmt.Printf("host: GOMAXPROCS=%d nproc=%d go=%s commit=%s\n", host.GOMAXPROCS, host.Nproc, host.Go, host.Commit)

	rep := report{Workload: *name, Seed: *seed, Trace: *trace, Host: host}
	w, setups, err := setUp(setup, *seed)
	if err != nil {
		return rep.fail(err)
	}
	if err := warm(w); err != nil {
		return rep.fail(err)
	}
	window := time.Duration(*seconds) * time.Second
	base, err := measure(w, window, minRounds)
	if err != nil {
		return rep.fail(err)
	}
	rep.Attempted, rep.Failed = base.attempted()
	// The steady-state check runs on this full-length untraced window in
	// both invocations: the traced window is a quarter as long, and its
	// tenths are short enough for a burst of host load to shift them.
	if err := base.steady(bounds["vlat_p50_ms"]); err != nil {
		rep.Checks = append(rep.Checks, err.Error())
	}
	if *trace == 0 {
		rep.Metrics, rep.Info, err = endToEnd(w, base, setups)
		if err != nil {
			return rep.fail(err)
		}
		return rep.finish()
	}

	tr := newTracer()
	w.setTracer(tr)
	traced, err := measure(w, window/tracedShare, 1)
	w.setTracer(nil)
	if err != nil {
		return rep.fail(err)
	}
	a, f := traced.attempted()
	rep.Attempted += a
	rep.Failed += f
	spans := tr.spans()
	rep.Metrics, err = perLayer(w, spans, base, traced)
	if err != nil {
		rep.Checks = append(rep.Checks, err.Error())
	}
	if err := writeSpans(fmt.Sprintf("%s/%s-s%d.spans.tsv.gz", outDir, *name, *seed), spans); err != nil {
		return rep.fail(err)
	}
	return rep.finish()
}

// setUp builds the workload repeatedly and keeps the last.
func setUp(setup func(uint64) (workload, error), seed uint64) (workload, []time.Duration, error) {
	var w workload
	var times []time.Duration
	for start := time.Now(); len(times) < setupRuns || time.Since(start) < setupTime; {
		w = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if w, err = setup(seed); err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(t0))
	}
	return w, times, nil
}

func warm(w workload) error {
	m := newMeter()
	w.startWindow(m)
	for time.Since(m.start) < warmup {
		if err := w.round(m); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	if failed := m.failed(); failed > 0 {
		return fmt.Errorf("warm-up: %d ops failed", failed)
	}
	return nil
}

// metric is one reported number.
type metric struct {
	Name  string  `json:"-"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type hostInfo struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	Nproc      int    `json:"nproc"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

// fingerprint identifies the host and build that produced a result. The
// commit comes from the build's VCS stamp, absent when the tree was not a
// git checkout.
func fingerprint() hostInfo {
	h := hostInfo{GOMAXPROCS: runtime.GOMAXPROCS(0), Nproc: runtime.NumCPU(), Go: runtime.Version(), Commit: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// loadBounds reads each end-to-end metric's regression bound.
func loadBounds(path string) (map[string]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]float64)
	for _, m := range spec.EndToEnd {
		out[m.Name] = m.Bound
	}
	if _, ok := out["vlat_p50_ms"]; !ok {
		return nil, errors.New(path + ": no bound for vlat_p50_ms")
	}
	return out, nil
}

// report is one run's result. The full record goes to outDir; standard
// output gets a table and a one-line JSON summary.
type report struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Trace     int               `json:"trace"`
	Host      hostInfo          `json:"host"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Checks    []string          `json:"failed_checks,omitempty"`
	Metrics   []metric          `json:"-"`
	Info      map[string]string `json:"info,omitempty"`
}

func (r *report) fail(err error) int {
	r.Checks = append(r.Checks, err.Error())
	return r.finish()
}

// finish prints the result and returns the exit status.
func (r *report) finish() int {
	correct := len(r.Checks) == 0 && r.Failed == 0 && r.Attempted > 0
	metrics := make(map[string]metric, len(r.Metrics))
	for _, m := range r.Metrics {
		fmt.Printf("%-36s %16.6g %s\n", m.Name, m.Value, m.Unit)
		metrics[m.Name] = m
	}
	for _, k := range slices.Sorted(maps.Keys(r.Info)) {
		fmt.Printf("%-36s %s\n", k, r.Info[k])
	}
	for _, c := range r.Checks {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", c)
	}
	record := struct {
		*report
		Correct bool              `json:"correct"`
		Metrics map[string]metric `json:"metrics"`
	}{r, correct, metrics}
	if err := os.MkdirAll(outDir, 0o755); err == nil {
		raw, _ := json.MarshalIndent(record, "", "  ")
		path := fmt.Sprintf("%s/%s-s%d-t%d.json", outDir, r.Workload, r.Seed, r.Trace)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
		}
	}
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, max(r.Attempted, 1), r.Failed, metrics})
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}
