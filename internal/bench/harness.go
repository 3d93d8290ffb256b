package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/blob"
	"repro/internal/workloads"
)

// Experiment is one benchsuite experiment: Run produces its result and every
// gate must pass before the result stands. A paper experiment reproduces a
// table or figure of the paper and writes nothing; a benchmark experiment
// returns Rows, which Execute writes to BENCH_<Name>.json.
type Experiment struct {
	Name  string
	Paper bool // selected by `benchsuite -exp all`
	Run   func(workloads.Config) (Result, error)
	Gates []Gate
}

// Result is what an experiment run produces.
type Result interface{ Render() string }

// Gate is one condition an experiment's result must meet. String describes
// the condition, bound included, for `benchsuite -list`.
type Gate interface {
	Check(Result) error
	String() string
}

// Experiments is every benchsuite experiment, in `-exp all` and `-list`
// order. The bounds are the committed gates; no flag changes them.
var Experiments = []Experiment{
	{Name: "table1", Paper: true,
		Run:   func(c workloads.Config) (Result, error) { return RunTableI(c) },
		Gates: []Gate{claim[*TableIResult]{"every application's I/O profile matches the paper's Table I", (*TableIResult).Matches}}},
	{Name: "fig1", Paper: true,
		Run: func(c workloads.Config) (Result, error) { return RunFigure1(c) }},
	{Name: "fig2", Paper: true,
		Run: func(c workloads.Config) (Result, error) { return RunFigure2(c) }},
	{Name: "table2", Paper: true,
		Run:   func(c workloads.Config) (Result, error) { return RunTableII(c) },
		Gates: []Gate{claim[*TableIIResult]{"the Spark directory-operation census matches the paper's 43/43/5/0", (*TableIIResult).MatchesPaper}}},
	{Name: "mapping", Paper: true,
		Run:   func(c workloads.Config) (Result, error) { return RunMapping(c) },
		Gates: []Gate{claim[*MappingResult]{"all applications run on blobs with >98% direct calls", (*MappingResult).AllRunAndMostlyDirect}}},
	{Name: "futurework", Paper: true,
		Run:   func(workloads.Config) (Result, error) { return RunFutureWork(FutureWorkOptions{}) },
		Gates: []Gate{claim[*FutureWorkResult]{"flat-namespace metadata and shared-write gains hold", (*FutureWorkResult).GainsHold}}},

	// The write op is dominated by irreducible byte work (chunk memmove +
	// CRC), so the parallel speed-up the sharded WAL lanes can show is
	// bounded by real cores. At 1 proc contended writes must still match
	// serial: the pre-sharding layout read 1.09-1.26x.
	{Name: "hotpath",
		Run: func(workloads.Config) (Result, error) { return runHotPath() },
		Gates: []Gate{
			allocBaseline{row: "BenchmarkHotPathWrite", path: "BENCH_hotpath.json"},
			ratio{"BenchmarkHotPathWriteParallel", "BenchmarkHotPathWrite", procsBound(0.75, 0.90, 1.00)},
		}},
	// Recovery is per-record CRC + copy work that parallelizes across lanes
	// only on real cores; at 1 proc the bound caps the pipeline's staging
	// overhead over the serial oracle.
	{Name: "recovery",
		Run: func(workloads.Config) (Result, error) { return runRecovery() },
		Gates: []Gate{
			ratio{"BenchmarkRecover/parallel/lanes=16/blobs=32", "BenchmarkRecover/serial/lanes=16/blobs=32", procsBound(0.75, 0.90, 1.15)},
		}},
	// Degraded writes move fewer bytes yet cost somewhat more virtual time:
	// R-1 disks carry the I/O, a down primary forces a promotion, and every
	// included owner logs a debt record (~1.14x at R=3). Synchronous repair
	// sneaking into the write path shows up as 2x and worse.
	{Name: "faults",
		Run: func(workloads.Config) (Result, error) { return runFaults() },
		Gates: []Gate{
			ratio{"BenchmarkFaultWrite/degraded/virtual", "BenchmarkFaultWrite/healthy/virtual", fixed(1.25)},
		}},
	// Both rename paths pay the same disk work; the fast path saves only the
	// client wire legs, read-response RPCs and 2PC rounds (~0.94 of the copy
	// loop). The BlobRenamer routing silently disengaging reads ~1.0.
	{Name: "frontends",
		Run: func(workloads.Config) (Result, error) { return runFrontends() },
		Gates: []Gate{
			ratio{"BenchmarkFrontendRename/fastpath/virtual", "BenchmarkFrontendRename/copy/virtual", fixed(0.95)},
		}},
	// A foreground op landing behind a migration batch queues behind up to
	// MigrationBatchChunks chunk writes (~3x for a join, ~2.6x for a drain).
	// An unthrottled sweep or a batch holding the member gate across its
	// copies shows up as an order-of-magnitude spike.
	{Name: "rebalance",
		Run: func(workloads.Config) (Result, error) { return runRebalance() },
		Gates: []Gate{
			ratio{"BenchmarkRebalanceForeground/join/virtual", "BenchmarkRebalanceForeground/quiesced/virtual", fixed(4)},
			ratio{"BenchmarkRebalanceForeground/leave/virtual", "BenchmarkRebalanceForeground/quiesced/virtual", fixed(4)},
		}},
}

// Execute runs e, prints its result, and checks every gate. A benchmark
// experiment's rows are written to dir/BENCH_<name>.json only after all
// gates pass: the file usually is the committed baseline a gate reads, and a
// failing run must not replace it, or a re-run would pass against its own
// regression.
func (e Experiment) Execute(w io.Writer, cfg workloads.Config, dir string) error {
	res, err := e.Run(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, res.Render())
	for _, g := range e.Gates {
		if err := g.Check(res); err != nil {
			return fmt.Errorf("gate %s: %w (nothing written)", g, err)
		}
		fmt.Fprintf(w, "gate ok: %s\n", g)
	}
	rows, ok := res.(Rows)
	if !ok {
		return nil
	}
	out, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "BENCH_"+e.Name+".json")
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s\n", path)
	return nil
}

// List prints every experiment with its gates.
func List(w io.Writer) {
	for _, e := range Experiments {
		kind := "benchmark, writes BENCH_" + e.Name + ".json"
		if e.Paper {
			kind = "paper, run by -exp all"
		}
		fmt.Fprintf(w, "%s\t(%s)\n", e.Name, kind)
		for _, g := range e.Gates {
			fmt.Fprintf(w, "\tgate: %s\n", g)
		}
	}
}

// Row is one benchmark measurement: a row of BENCH_<experiment>.json.
type Row struct {
	Name        string  `json:"name"`
	NsPerOp     int64   `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"alloc_bytes_per_op"`
	MBPerSec    float64 `json:"mb_per_sec"`
}

// Rows is a benchmark experiment's result.
type Rows []Row

// Render prints one line per row.
func (rs Rows) Render() string {
	width := 0
	for _, r := range rs {
		width = max(width, len(r.Name))
	}
	var b strings.Builder
	for _, r := range rs {
		fmt.Fprintf(&b, "%-*s %12d ns/op %8d B/op %6d allocs/op %10.1f MB/s\n",
			width, r.Name, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp, r.MBPerSec)
	}
	return b.String()
}

func (rs Rows) find(name string) (Row, error) {
	for _, r := range rs {
		if r.Name == name {
			return r, nil
		}
	}
	return Row{}, fmt.Errorf("row %s missing", name)
}

// measure runs body under testing.Benchmark (so its numbers match `go test
// -bench -benchmem`) reps times and returns the fastest run as the row
// called name.
// The minimum over repetitions is the noise-robust statistic: a scheduler
// hiccup only ever makes a run slower.
func measure(name string, reps int, body func(*testing.B)) (Row, error) {
	var best testing.BenchmarkResult
	for rep := 0; rep < reps; rep++ {
		r := testing.Benchmark(body)
		if r.N == 0 {
			return Row{}, fmt.Errorf("bench: benchmark %s failed", name)
		}
		if rep == 0 || r.NsPerOp() < best.NsPerOp() {
			best = r
		}
	}
	row := Row{Name: name, NsPerOp: best.NsPerOp(), AllocsPerOp: best.AllocsPerOp(), BytesPerOp: best.AllocedBytesPerOp()}
	if best.T > 0 {
		row.MBPerSec = float64(best.Bytes) * float64(best.N) / 1e6 / best.T.Seconds()
	}
	return row, nil
}

// virtualOps is how many ops a gated /virtual row averages over.
const virtualOps = 8

// CompactEvery is how many 256 KiB hot-path writes a benchmark runs
// between WAL checkpoints.
const CompactEvery = 256

// compactBytes is the payload a serial benchmark moves between WAL
// checkpoints, so a benchmark with larger ops checkpoints more often and
// its logs peak at the same size.
const compactBytes = CompactEvery * 256 << 10

// DriveSerial is the serial benchmark body: b.N calls of op, each moving
// opBytes, with every WAL of store checkpointed outside the timer before
// the first op and after every compactBytes of payload. Without the
// checkpoints every overwrite stays in the in-memory logs, so B/op and RSS
// grow with -benchtime and the metric tracks log growth instead of per-op
// cost. store is nil when op builds a fresh store per call, leaving nothing
// to checkpoint. Every serial benchmark runs it, in the root package and in
// benchsuite alike.
func DriveSerial(b *testing.B, store *blob.Store, opBytes int64, op func() error) {
	checkpoint := func() {
		if store != nil {
			store.CheckpointAll()
		}
	}
	every := CompactEvery
	if opBytes > 0 {
		every = max(1, int(compactBytes/opBytes))
	}
	b.SetBytes(opBytes)
	b.ReportAllocs()
	checkpoint()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%every == every-1 {
			b.StopTimer()
			checkpoint()
			b.StartTimer()
		}
		if err := op(); err != nil {
			b.Fatal(err)
		}
	}
}

// warm runs a compaction window of op (a 256 KiB write) and checkpoints,
// so every server's slab-backed log reaches the high-water DriveSerial
// runs at (the slabs parked on the free lists by the checkpoint) before
// measurement begins. Without it, whether the one-time medium fill lands
// inside the measured run depends on testing.Benchmark's ramp, and B/op
// flips between ~0 and the fill cost.
func warm(store *blob.Store, op func() error) error {
	for i := 0; i < CompactEvery; i++ {
		if err := op(); err != nil {
			return err
		}
	}
	store.CheckpointAll()
	return nil
}

// bound is a ratio gate's upper limit by GOMAXPROCS: ge4 at 4 or more, ge2
// at 2-3, one at 1.
type bound struct{ ge4, ge2, one float64 }

// fixed is a bound that holds on any host: gates on virtual rows.
func fixed(b float64) bound { return bound{b, b, b} }

// procsBound is a bound for wall-clock scaling gates, whose achievable
// parallel speed-up depends on the cores the host has.
func procsBound(ge4, ge2, one float64) bound { return bound{ge4, ge2, one} }

func (b bound) at(procs int) float64 {
	switch {
	case procs >= 4:
		return b.ge4
	case procs >= 2:
		return b.ge2
	}
	return b.one
}

func (b bound) String() string {
	if b.ge4 == b.ge2 && b.ge2 == b.one {
		return fmt.Sprintf("%.2f", b.one)
	}
	return fmt.Sprintf("%.2f at >=4 procs, %.2f at 2-3, %.2f at 1", b.ge4, b.ge2, b.one)
}

// ratio bounds the ns/op of row num over that of row den.
type ratio struct {
	num, den string
	bound    bound
}

func (g ratio) Check(res Result) error {
	rows, _ := res.(Rows)
	num, err := rows.find(g.num)
	if err != nil {
		return err
	}
	den, err := rows.find(g.den)
	if err != nil {
		return err
	}
	if den.NsPerOp <= 0 {
		return fmt.Errorf("row %s has %d ns/op", den.Name, den.NsPerOp)
	}
	procs := runtime.GOMAXPROCS(0)
	if r := float64(num.NsPerOp) / float64(den.NsPerOp); r > g.bound.at(procs) {
		return fmt.Errorf("%d / %d ns/op is %.3fx, over %.2fx at GOMAXPROCS=%d",
			num.NsPerOp, den.NsPerOp, r, g.bound.at(procs), procs)
	}
	return nil
}

func (g ratio) String() string {
	return fmt.Sprintf("%s / %s ns/op <= %s", g.num, g.den, g.bound)
}

// allocBaseline fails when row allocates more per op than the committed
// BENCH file at path records, beyond a noise floor: GC-driven sync.Pool
// evictions during a run can surface a few refill allocations against a
// zero baseline, while a real regression (un-pooled staging, per-record
// escapes) costs hundreds of bytes per op. A baseline without the row
// passes, so adding a benchmark does not break the gate against an older
// file.
type allocBaseline struct{ row, path string }

func (g allocBaseline) Check(res Result) error {
	rows, _ := res.(Rows)
	r, err := rows.find(g.row)
	if err != nil {
		return err
	}
	raw, err := os.ReadFile(g.path)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	var baseline Rows
	if err := json.Unmarshal(raw, &baseline); err != nil {
		return fmt.Errorf("baseline %s: %w", g.path, err)
	}
	old, err := baseline.find(g.row)
	if err != nil {
		return nil
	}
	if limit := old.BytesPerOp + max(old.BytesPerOp/8, 64); r.BytesPerOp > limit {
		return fmt.Errorf("%d B/op over %d (baseline %d)", r.BytesPerOp, limit, old.BytesPerOp)
	}
	if limit := old.AllocsPerOp + max(old.AllocsPerOp/8, 2); r.AllocsPerOp > limit {
		return fmt.Errorf("%d allocs/op over %d (baseline %d)", r.AllocsPerOp, limit, old.AllocsPerOp)
	}
	return nil
}

func (g allocBaseline) String() string {
	return fmt.Sprintf("%s B/op and allocs/op <= %s + max(old/8, 64) B and max(old/8, 2) allocs", g.row, g.path)
}

// claim is a paper experiment's gate: the result must bear out the paper.
type claim[T Result] struct {
	desc  string
	holds func(T) bool
}

func (c claim[T]) Check(res Result) error {
	if r, ok := res.(T); !ok || !c.holds(r) {
		return fmt.Errorf("does not hold")
	}
	return nil
}

func (c claim[T]) String() string { return c.desc }
