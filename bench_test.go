// Package repro's benchmark suite: one benchmark per table and figure of
// the paper (delegating to internal/bench), plus ablation benchmarks for
// the design choices called out in DESIGN.md §5. Custom "v*/op" metrics
// report virtual (simulated-cluster) time; the built-in ns/op is host time.
//
// Run everything with:
//
//	go test -bench=. -benchmem
package repro

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/blob"
	"repro/internal/blobfs"
	"repro/internal/cluster"
	"repro/internal/fs/posixfs"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// benchCfg balances fidelity and wall time for `go test -bench=.`: volumes
// at 1:8192 of the paper's, I/O unit scaled along with them.
func benchCfg() workloads.Config {
	return workloads.Config{Factor: 8192, Chunk: 1024, Ranks: 8, Executors: 4}
}

// --- Per-table / per-figure benchmarks. ---

func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunTableI(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if !res.Matches() {
			b.Fatalf("Table I profiles diverge:\n%s", res.Render())
		}
	}
}

func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunFigure1(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Bars) != 5 {
			b.Fatal("wrong bar count")
		}
	}
}

func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunFigure2(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		for _, bar := range res.Bars {
			if share := bar.Percent[0] + bar.Percent[1]; share < 98 {
				b.Fatalf("%s file share %.2f%% < 98%%", bar.App, share)
			}
		}
	}
}

func BenchmarkTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunTableII(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if !res.MatchesPaper() {
			b.Fatalf("census diverges:\n%s", res.Render())
		}
	}
}

func BenchmarkMappingCoverage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunMapping(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if !res.AllRunAndMostlyDirect() {
			b.Fatalf("mapping claim fails:\n%s", res.Render())
		}
	}
}

func BenchmarkFlatVsHierarchicalMetadata(b *testing.B) {
	var last *bench.FutureWorkResult
	for i := 0; i < b.N; i++ {
		res, err := bench.RunFutureWork(bench.FutureWorkOptions{
			Files:   100,
			Depths:  []int{1, 2, 4, 8},
			Writers: []int{1}, BlocksPerWriter: 1, BlockSize: 1,
			ListFiles: 16,
		})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	if last != nil && len(last.Metadata) > 0 {
		b.ReportMetric(last.Metadata[len(last.Metadata)-1].Speedup, "speedup@depth8")
	}
}

func BenchmarkFlatVsHierarchicalSharedWrite(b *testing.B) {
	var last *bench.FutureWorkResult
	for i := 0; i < b.N; i++ {
		res, err := bench.RunFutureWork(bench.FutureWorkOptions{
			Files: 4, Depths: []int{1},
			Writers:         []int{1, 2, 4, 8},
			BlocksPerWriter: 256,
			BlockSize:       4 << 10,
			ListFiles:       16,
		})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	if last != nil && len(last.SharedWrite) > 0 {
		b.ReportMetric(last.SharedWrite[len(last.SharedWrite)-1].Speedup, "speedup@8writers")
	}
}

// --- Ablation 1 (DESIGN.md §5): path-resolution cost vs directory depth. ---

func BenchmarkAblationPathDepth(b *testing.B) {
	for _, depth := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("depth-%d", depth), func(b *testing.B) {
			fs := posixfs.NewStrict(cluster.New(cluster.Config{Nodes: 9, Seed: 1}))
			ctx := storage.NewContext()
			dir := ""
			for i := 0; i < depth; i++ {
				dir += fmt.Sprintf("/d%d", i)
				if err := fs.Mkdir(ctx, dir); err != nil {
					b.Fatal(err)
				}
			}
			h, err := fs.Create(ctx, dir+"/leaf")
			if err != nil {
				b.Fatal(err)
			}
			h.Close(ctx)
			start := ctx.Clock.Now()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := fs.Stat(ctx, dir+"/leaf"); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			reportVirtual(b, ctx.Clock.Now()-start)
		})
	}
}

// --- Ablation 2: strict POSIX locking vs relaxed semantics. ---

func BenchmarkAblationConsistency(b *testing.B) {
	for _, mode := range []struct {
		name string
		lock bool
	}{{"strict-locks", true}, {"relaxed", false}} {
		b.Run(mode.name, func(b *testing.B) {
			fs := posixfs.New(cluster.New(cluster.Config{Nodes: 9, Seed: 1}),
				posixfs.Config{LockAcquisition: mode.lock})
			ctx := storage.NewContext()
			h, err := fs.Create(ctx, "/f")
			if err != nil {
				b.Fatal(err)
			}
			defer h.Close(ctx)
			block := make([]byte, 4096)
			start := ctx.Clock.Now()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := h.WriteAt(ctx, int64(i%256)*4096, block); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			reportVirtual(b, ctx.Clock.Now()-start)
		})
	}
}

// --- Ablation 3: replication factor vs write cost. ---

func BenchmarkAblationReplication(b *testing.B) {
	for _, rep := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("rep-%d", rep), func(b *testing.B) {
			store := blob.New(cluster.New(cluster.Config{Nodes: 9, Seed: 1}),
				blob.Config{ChunkSize: 1 << 20, Replication: rep})
			ctx := storage.NewContext()
			if err := store.CreateBlob(ctx, "k"); err != nil {
				b.Fatal(err)
			}
			block := make([]byte, 64<<10)
			start := ctx.Clock.Now()
			b.SetBytes(int64(len(block)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := store.WriteBlob(ctx, "k", int64(i%64)<<16, block); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			reportVirtual(b, ctx.Clock.Now()-start)
		})
	}
}

// --- Ablation 4: chunk size vs large-transfer cost. ---

func BenchmarkAblationChunkSize(b *testing.B) {
	const transfer = 4 << 20
	for _, cs := range []int{256 << 10, 1 << 20, 4 << 20} {
		b.Run(fmt.Sprintf("chunk-%dKiB", cs>>10), func(b *testing.B) {
			store := blob.New(cluster.New(cluster.Config{Nodes: 9, Seed: 1}),
				blob.Config{ChunkSize: cs, Replication: 1})
			ctx := storage.NewContext()
			if err := store.CreateBlob(ctx, "big"); err != nil {
				b.Fatal(err)
			}
			payload := make([]byte, transfer)
			start := ctx.Clock.Now()
			b.SetBytes(transfer)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := store.WriteBlob(ctx, "big", 0, payload); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			reportVirtual(b, ctx.Clock.Now()-start)
		})
	}
}

// --- Ablation 5: collective (two-phase) vs independent MPI-IO writes.
// Each rank owns a rank-strided set of small blocks; independent mode
// issues them one by one, collective mode hands them to WriteAtAllv, which
// re-partitions the union so each rank performs ONE contiguous write. ---

func BenchmarkAblationCollective(b *testing.B) {
	const ranks = 8
	const blockSize = 4096
	const blocksPerRank = 16
	for _, mode := range []string{"independent", "collective"} {
		b.Run(mode, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				census := trace.NewCensus()
				fs := trace.Wrap(posixfs.NewStrict(cluster.New(cluster.Config{Nodes: 9, Seed: 1})), census)
				errs := mpi.Run(ranks, sim.DefaultCostModel(), func(r *mpi.Rank) error {
					f, err := mpiio.Open(r, fs, "/out", true, mpiio.Options{BufferSize: 1})
					if err != nil {
						return err
					}
					defer f.Close()
					block := make([]byte, blockSize)
					if mode == "collective" {
						pieces := make([]mpiio.Piece, blocksPerRank)
						for j := 0; j < blocksPerRank; j++ {
							pieces[j] = mpiio.Piece{
								Off:  int64(j*ranks+r.ID) * blockSize,
								Data: block,
							}
						}
						if _, err := f.WriteAtAllv(pieces); err != nil {
							return err
						}
					} else {
						for j := 0; j < blocksPerRank; j++ {
							off := int64(j*ranks+r.ID) * blockSize
							if _, err := f.WriteAt(off, block); err != nil {
								return err
							}
						}
					}
					return f.Sync()
				})
				if err := mpi.FirstError(errs); err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					b.ReportMetric(float64(census.OpCount(storage.OpWrite)), "storage-writes")
				}
			}
		})
	}
}

// --- Ablation 6: native directories vs scan-emulated directories. ---

func BenchmarkAblationScanEmulation(b *testing.B) {
	const files = 128
	const decoys = 1024 // the rest of the namespace, which only the flat scan wades through
	newPosix := func() storage.FileSystem {
		return posixfs.NewStrict(cluster.New(cluster.Config{Nodes: 9, Seed: 1}))
	}
	newBlob := func() storage.FileSystem {
		return blobfs.New(blob.New(cluster.New(cluster.Config{Nodes: 9, Seed: 1}),
			blob.Config{ChunkSize: 1 << 20, Replication: 1}))
	}
	for _, impl := range []struct {
		name string
		mk   func() storage.FileSystem
	}{{"posix-native", newPosix}, {"blob-scan", newBlob}} {
		b.Run(impl.name, func(b *testing.B) {
			fs := impl.mk()
			ctx := storage.NewContext()
			if err := fs.Mkdir(ctx, "/dir"); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < files; i++ {
				h, err := fs.Create(ctx, fmt.Sprintf("/dir/f-%04d", i))
				if err != nil {
					b.Fatal(err)
				}
				h.Close(ctx)
			}
			if err := fs.Mkdir(ctx, "/rest"); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < decoys; i++ {
				h, err := fs.Create(ctx, fmt.Sprintf("/rest/d-%05d", i))
				if err != nil {
					b.Fatal(err)
				}
				h.Close(ctx)
			}
			start := ctx.Clock.Now()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				entries, err := fs.ReadDir(ctx, "/dir")
				if err != nil {
					b.Fatal(err)
				}
				if len(entries) != files {
					b.Fatalf("listing returned %d entries", len(entries))
				}
			}
			b.StopTimer()
			reportVirtual(b, ctx.Clock.Now()-start)
		})
	}
}

// --- Data-plane hot path: per-chunk dispatch cost on striped reads and
// writes (placement lookup, chunk addressing, server locks, WAL append).
// Allocation counts are the regression guard: see BENCH_hotpath.json. ---

func BenchmarkHotPathRead(b *testing.B) {
	h, err := bench.NewHotPath()
	if err != nil {
		b.Fatal(err)
	}
	bench.DriveSerial(b, h.Store, h.OpBytes(), h.Read)
}

func BenchmarkHotPathWrite(b *testing.B) {
	h, err := bench.NewHotPath()
	if err != nil {
		b.Fatal(err)
	}
	// One warm compaction window parks the slab high-water on the free
	// lists, so B/op measures steady-state dispatch cost instead of the
	// fresh store's one-time medium fill.
	if err := h.Warm(); err != nil {
		b.Fatal(err)
	}
	bench.DriveSerial(b, h.Store, h.OpBytes(), h.Write)
}

// Inline variants pin the dispatcher's overhead against sequential
// execution of the same code path (virtual times are identical by
// construction; host time is the contrast).

func BenchmarkHotPathReadInline(b *testing.B) {
	h, err := bench.NewHotPathInline()
	if err != nil {
		b.Fatal(err)
	}
	bench.DriveSerial(b, h.Store, h.OpBytes(), h.Read)
}

func BenchmarkHotPathWriteInline(b *testing.B) {
	h, err := bench.NewHotPathInline()
	if err != nil {
		b.Fatal(err)
	}
	if err := h.Warm(); err != nil {
		b.Fatal(err)
	}
	bench.DriveSerial(b, h.Store, h.OpBytes(), h.Write)
}

// BenchmarkHotPathReadParallel drives the dispatcher from many concurrent
// clients — the shape the worker pool exists for. Each client owns its
// context and buffer; the blob, its descriptor latch (read-shared), and
// the chunk stripes are shared.
func BenchmarkHotPathReadParallel(b *testing.B) {
	h, err := bench.NewHotPath()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(h.OpBytes())
	b.ReportAllocs()
	var readErr atomic.Value // Fatalf must not run on RunParallel workers
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		ctx := storage.NewContext()
		buf := make([]byte, h.OpBytes())
		for pb.Next() {
			n, err := h.Store.ReadBlob(ctx, "hot", 0, buf)
			if err != nil || n != len(buf) {
				readErr.Store(fmt.Errorf("parallel read: (%d, %v)", n, err))
				return
			}
		}
	})
	b.StopTimer()
	if err := readErr.Load(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkHotPathWriteParallel drives concurrent writers against
// per-client blobs — every client's descriptor latch is private, so the
// contention measured here is the shared substrate: per-server WAL mutexes,
// chunk stripes, and the dispatcher (ROADMAP's write-scaling question).
// Batches of writes alternate with out-of-timer compaction like the serial
// write benchmark, keeping the in-memory logs bounded. ns/op counts
// individual write operations across all clients.
func BenchmarkHotPathWriteParallel(b *testing.B) {
	h, err := bench.NewHotPathParallel(0)
	if err != nil {
		b.Fatal(err)
	}
	if err := h.WarmParallel(); err != nil {
		b.Fatal(err)
	}
	h.DriveParallelWrites(b)
}

// BenchmarkHotPathWriteParallelLanes1 is the same contended-writer shape
// pinned to a single WAL lane per server — the pre-sharding layout. The
// contrast against BenchmarkHotPathWriteParallel is what the lane sharding
// and group commit buy under multi-client write load (benchsuite records
// the fuller lane sweep in BENCH_hotpath.json).
func BenchmarkHotPathWriteParallelLanes1(b *testing.B) {
	h, err := bench.NewHotPathParallelLanes(0, 1)
	if err != nil {
		b.Fatal(err)
	}
	if err := h.WarmParallel(); err != nil {
		b.Fatal(err)
	}
	h.DriveParallelWrites(b)
}

// BenchmarkRecover measures crash recovery of the fullest server of a
// cold 9-node store — merged lane decode, 2PC prepare buffering, and the
// chunk-table scatter — serial (the single-threaded oracle) against the
// parallel lane-decode pipeline, across the WAL lane sweep. ns/op is one
// full crash+recover cycle; MB/s is log bytes replayed. benchsuite's
// `recovery` experiment records the fuller sweep (including cold-store
// sizes) in BENCH_recovery.json, gated on the parallel/serial ratio
// (`benchsuite -list` prints the bound).
func BenchmarkRecover(b *testing.B) {
	for _, mode := range []struct {
		name   string
		serial bool
	}{{"serial", true}, {"parallel", false}} {
		for _, lanes := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("%s/lanes=%d", mode.name, lanes), func(b *testing.B) {
				f, err := bench.NewRecoveryFixture(lanes, 32, mode.serial)
				if err != nil {
					b.Fatal(err)
				}
				f.Drive(b)
			})
		}
	}
}

// reportVirtual attaches the simulated-cluster time per operation.
func reportVirtual(b *testing.B, total time.Duration) {
	if b.N > 0 {
		b.ReportMetric(float64(total.Nanoseconds())/float64(b.N), "vns/op")
	}
}

// --- Ablation 7: synchronous vs asynchronous replica acknowledgement. ---

func BenchmarkAblationAsyncReplication(b *testing.B) {
	for _, mode := range []struct {
		name  string
		async bool
	}{{"sync-ack", false}, {"async-ack", true}} {
		b.Run(mode.name, func(b *testing.B) {
			store := blob.New(cluster.New(cluster.Config{Nodes: 9, Seed: 1}),
				blob.Config{ChunkSize: 1 << 20, Replication: 3, AsyncReplication: mode.async})
			ctx := storage.NewContext()
			if err := store.CreateBlob(ctx, "k"); err != nil {
				b.Fatal(err)
			}
			block := make([]byte, 64<<10)
			start := ctx.Clock.Now()
			b.SetBytes(int64(len(block)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := store.WriteBlob(ctx, "k", int64(i%64)<<16, block); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			reportVirtual(b, ctx.Clock.Now()-start)
		})
	}
}

// --- Ablation 8: transactional vs direct multi-blob updates. ---

func BenchmarkAblationTransactions(b *testing.B) {
	for _, mode := range []string{"direct", "transactional"} {
		b.Run(mode, func(b *testing.B) {
			store := blob.New(cluster.New(cluster.Config{Nodes: 9, Seed: 1}),
				blob.Config{ChunkSize: 1 << 20, Replication: 2})
			ctx := storage.NewContext()
			for _, k := range []string{"x", "y"} {
				if err := store.CreateBlob(ctx, k); err != nil {
					b.Fatal(err)
				}
			}
			payload := make([]byte, 4096)
			start := ctx.Clock.Now()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if mode == "direct" {
					if _, err := store.WriteBlob(ctx, "x", 0, payload); err != nil {
						b.Fatal(err)
					}
					if _, err := store.WriteBlob(ctx, "y", 0, payload); err != nil {
						b.Fatal(err)
					}
				} else {
					txn := store.Begin(ctx)
					txn.Write("x", 0, payload)
					txn.Write("y", 0, payload)
					if err := txn.Commit(); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			reportVirtual(b, ctx.Clock.Now()-start)
		})
	}
}

// --- Ablation 9 (extension): indexed vs plain flat-namespace scan. ---

func BenchmarkAblationIndexedScan(b *testing.B) {
	const files, decoys = 128, 2048
	for _, mode := range []struct {
		name    string
		indexed bool
	}{{"flat-scan", false}, {"indexed-scan", true}} {
		b.Run(mode.name, func(b *testing.B) {
			fs := blobfs.New(blob.New(cluster.New(cluster.Config{Nodes: 9, Seed: 1}),
				blob.Config{ChunkSize: 1 << 20, Replication: 1, IndexedScan: mode.indexed}))
			ctx := storage.NewContext()
			if err := fs.Mkdir(ctx, "/dir"); err != nil {
				b.Fatal(err)
			}
			if err := fs.Mkdir(ctx, "/rest"); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < files; i++ {
				h, err := fs.Create(ctx, fmt.Sprintf("/dir/f-%05d", i))
				if err != nil {
					b.Fatal(err)
				}
				h.Close(ctx)
			}
			for i := 0; i < decoys; i++ {
				h, err := fs.Create(ctx, fmt.Sprintf("/rest/d-%05d", i))
				if err != nil {
					b.Fatal(err)
				}
				h.Close(ctx)
			}
			start := ctx.Clock.Now()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				entries, err := fs.ReadDir(ctx, "/dir")
				if err != nil || len(entries) != files {
					b.Fatalf("listing = (%d, %v)", len(entries), err)
				}
			}
			b.StopTimer()
			reportVirtual(b, ctx.Clock.Now()-start)
		})
	}
}

// BenchmarkFaultWrite profiles the failure-domain write paths behind the
// benchsuite `faults` experiment: the healthy replicated overwrite against
// the degraded path that excludes a down owner and logs repair debt.
func BenchmarkFaultWrite(b *testing.B) {
	for _, mode := range []struct {
		name     string
		degraded bool
	}{{"healthy", false}, {"degraded", true}} {
		f, err := bench.NewFaultsFixture()
		if err != nil {
			b.Fatal(err)
		}
		if err := f.Warm(); err != nil {
			b.Fatal(err)
		}
		b.Run(mode.name, f.DriveWrite(mode.degraded))
	}
}

// BenchmarkFaultResync measures the rejoin path: a node misses a full-blob
// overwrite and SetDown(..., false) drains the debt back onto it.
func BenchmarkFaultResync(b *testing.B) {
	f, err := bench.NewFaultsFixture()
	if err != nil {
		b.Fatal(err)
	}
	if err := f.Warm(); err != nil {
		b.Fatal(err)
	}
	f.DriveResync(b)
}
