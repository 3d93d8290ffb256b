package bench

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/blob"
	"repro/internal/cluster"
	"repro/internal/storage"
)

// FaultsFixture backs the benchsuite `faults` experiment: the failure-domain
// cost profile of the degraded write path and rejoin resync. The cluster is
// 3 nodes with 3-way replication so every chunk is owned by every node —
// downing one node makes EVERY chunk write degraded (exclusion + per-chunk
// RecRepairNeeded debt record on the survivors), which keeps the
// healthy/degraded comparison crisp instead of diluting it across a larger
// ring where only a third of the chunks lose a replica.
type FaultsFixture struct {
	store *blob.Store
	ctx   *storage.Context
	buf   []byte
	down  cluster.NodeID
}

// NewFaultsFixture builds the 3-node store with one 4-chunk blob target.
func NewFaultsFixture() (*FaultsFixture, error) {
	st := blob.New(cluster.New(cluster.Config{Nodes: 3, Seed: 1}),
		blob.Config{ChunkSize: 64 << 10, Replication: 3})
	ctx := storage.NewContext()
	if err := st.CreateBlob(ctx, "fault-target"); err != nil {
		return nil, err
	}
	buf := make([]byte, 256<<10)
	for i := range buf {
		buf[i] = byte(i)
	}
	f := &FaultsFixture{store: st, ctx: ctx, buf: buf, down: 2}
	// Prime the blob so every benchmark iteration is an overwrite of
	// existing chunks, never a first-touch allocation.
	if _, err := st.WriteBlob(ctx, "fault-target", 0, buf); err != nil {
		return nil, err
	}
	return f, nil
}

// RunWrite performs one full-blob overwrite. With the cluster healthy this
// is the baseline replicated 2PC write; with a node down it is the degraded
// path: the down owner is excluded from every chunk and the survivors log
// repair debt naming it.
func (f *FaultsFixture) RunWrite() error {
	_, err := f.store.WriteBlob(f.ctx, "fault-target", 0, f.buf)
	return err
}

// RunResync performs one down/write/rejoin/repair cycle: a node misses a
// full-blob overwrite, then rejoins — SetDown(..., false) synchronously
// drains the debt, re-installing the node's replica of every chunk. The
// repaired volume per cycle is len(buf): one node's worth.
func (f *FaultsFixture) RunResync() error {
	f.store.SetDown(f.down, true)
	if _, err := f.store.WriteBlob(f.ctx, "fault-target", 0, f.buf); err != nil {
		return err
	}
	f.store.SetDown(f.down, false)
	if n := f.store.RepairPending(); n != 0 {
		return fmt.Errorf("bench: resync cycle left %d chunks owing repair", n)
	}
	return nil
}

// Warm brings the fixture's logs to their steady-state high-water (see
// warm). Benchmarks call it once, before the first Drive.
func (f *FaultsFixture) Warm() error { return warm(f.store, f.RunWrite) }

// DriveWrite is the full-blob overwrite benchmark body, healthy or with the
// fixture's down node excluded from every write.
func (f *FaultsFixture) DriveWrite(degraded bool) func(*testing.B) {
	return func(b *testing.B) {
		if degraded {
			f.store.SetDown(f.down, true)
		}
		DriveSerial(b, f.store, int64(len(f.buf)), f.RunWrite)
		b.StopTimer()
		if degraded {
			// Rejoin outside the timer: SetDown(..., false) synchronously
			// drains the accumulated debt, leaving the fixture healthy for
			// the next benchmark.
			f.store.SetDown(f.down, false)
		}
	}
}

// DriveResync is the rejoin-resync benchmark body: one RunResync cycle per op.
func (f *FaultsFixture) DriveResync(b *testing.B) {
	DriveSerial(b, f.store, int64(len(f.buf)), f.RunResync)
}

// VirtualWriteCost measures the simulated per-op cost of a full-blob
// overwrite, healthy or degraded: every disk, RPC, and compute charge the
// write folds into its context. It builds its own fresh fixture — the
// simulator's shared resources (per-node disk queues) carry virtual time
// forward, so measuring on a store that already ran wall-clock benchmarks
// would fold an arbitrary amount of queue catch-up into the first op. One
// throwaway write syncs the fresh clock with the fixture's (seeded,
// identical every run) construction history; the marginal cost of the next
// `ops` writes is then a pure function of the code path — byte-for-byte
// reproducible on any host — which is what makes it gateable.
func VirtualWriteCost(degraded bool, ops int) (time.Duration, error) {
	f, err := NewFaultsFixture()
	if err != nil {
		return 0, err
	}
	if degraded {
		f.store.SetDown(f.down, true)
	}
	ctx := storage.NewContext()
	if _, err := f.store.WriteBlob(ctx, "fault-target", 0, f.buf); err != nil {
		return 0, err
	}
	start := ctx.Clock.Now()
	for i := 0; i < ops; i++ {
		if _, err := f.store.WriteBlob(ctx, "fault-target", 0, f.buf); err != nil {
			return 0, err
		}
	}
	return (ctx.Clock.Now() - start) / time.Duration(ops), nil
}

// runFaults measures BenchmarkFaultWrite/{healthy,degraded} (a replicated
// vs degraded full-blob overwrite) and BenchmarkFaultResync (MB/s of the
// rejoin repair path over a full down/write/rejoin/drain cycle), then the
// /virtual twins of the write pair. The gate reads the twins: simulated
// cost is a pure function of the code path, identical on every host, while
// wall-clock ns/op on a contended box swings an order of magnitude between
// runs and would make any wall-clock ratio bound flaky or vacuous.
func runFaults() (Rows, error) {
	f, err := NewFaultsFixture()
	if err != nil {
		return nil, err
	}
	if err := f.Warm(); err != nil {
		return nil, err
	}
	var rows Rows
	for _, m := range []struct {
		name string
		body func(*testing.B)
	}{
		{"BenchmarkFaultWrite/healthy", f.DriveWrite(false)},
		{"BenchmarkFaultWrite/degraded", f.DriveWrite(true)},
		{"BenchmarkFaultResync", f.DriveResync},
	} {
		row, err := measure(m.name, 3, m.body)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	for _, mode := range []struct {
		name     string
		degraded bool
	}{{"healthy", false}, {"degraded", true}} {
		v, err := VirtualWriteCost(mode.degraded, virtualOps)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Row{Name: "BenchmarkFaultWrite/" + mode.name + "/virtual", NsPerOp: int64(v)})
	}
	return rows, nil
}
