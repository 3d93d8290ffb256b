package bench

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/blob"
	"repro/internal/cluster"
	"repro/internal/storage"
)

// HotPath is the fixture behind BenchmarkHotPathRead/BenchmarkHotPathWrite
// and the benchsuite `hotpath` experiment: a 9-node store with 64 KiB chunks
// and 3-way replication, serving 256 KiB operations that stripe across four
// chunks — the steady-state data-plane shape whose per-chunk dispatch cost
// (placement lookup, chunk addressing, server locking, WAL append) the
// benchmarks isolate.
type HotPath struct {
	Store *blob.Store
	Ctx   *storage.Context
	buf   []byte
	// clients is the per-client fixture of the parallel write benchmark:
	// every client owns a key (so its descriptor latch is private and the
	// contention lands on the shared WAL mutexes and dispatcher), a
	// context, and a payload buffer.
	clients []hotClient
}

type hotClient struct {
	key string
	ctx *storage.Context
	buf []byte
}

// NewHotPath builds the fixture with the blob pre-written so reads hit
// materialized chunks. The store runs the default configuration: per-chunk
// work dispatched across the goroutine worker pool.
func NewHotPath() (*HotPath, error) { return newHotPath(false, 0) }

// NewHotPathInline builds the same fixture with blob.Config.InlineFanout:
// the sequential-execution baseline the dispatcher is measured against.
// Virtual times are identical by construction; host ns/op is the contrast.
func NewHotPathInline() (*HotPath, error) { return newHotPath(true, 0) }

func newHotPath(inline bool, lanes int) (*HotPath, error) {
	st := blob.New(cluster.New(cluster.Config{Nodes: 9, Seed: 1}),
		blob.Config{ChunkSize: 64 << 10, Replication: 3, InlineFanout: inline, WALLanes: lanes})
	ctx := storage.NewContext()
	if err := st.CreateBlob(ctx, "hot"); err != nil {
		return nil, err
	}
	h := &HotPath{Store: st, Ctx: ctx, buf: make([]byte, 256<<10)}
	for i := range h.buf {
		h.buf[i] = byte(i)
	}
	if _, err := st.WriteBlob(ctx, "hot", 0, h.buf); err != nil {
		return nil, err
	}
	return h, nil
}

// OpBytes is the payload size of one Read/Write operation.
func (h *HotPath) OpBytes() int64 { return int64(len(h.buf)) }

// NewHotPathParallel builds the fixture plus clients per-client blobs
// ("hot-0".."hot-N", pre-written like the shared blob) for multi-client
// write benchmarks — the shape that answers ROADMAP's descriptor-latch vs.
// per-server-WAL-mutex scaling question, since per-client keys make every
// latch private while all clients share the nine servers' logs. clients <= 0
// selects GOMAXPROCS capped at 16 (the dispatcher's worker ceiling).
func NewHotPathParallel(clients int) (*HotPath, error) {
	return NewHotPathParallelLanes(clients, 0)
}

// NewHotPathParallelLanes is NewHotPathParallel with an explicit WAL lane
// count (0 selects the store default), the fixture of the lane-count sweep
// recorded in BENCH_hotpath.json.
func NewHotPathParallelLanes(clients, lanes int) (*HotPath, error) {
	if clients <= 0 {
		clients = runtime.GOMAXPROCS(0)
		if clients > 16 {
			clients = 16
		}
	}
	h, err := newHotPath(false, lanes)
	if err != nil {
		return nil, err
	}
	for i := 0; i < clients; i++ {
		c := hotClient{
			key: fmt.Sprintf("hot-%d", i),
			ctx: storage.NewContext(),
			buf: append([]byte(nil), h.buf...),
		}
		if err := h.Store.CreateBlob(c.ctx, c.key); err != nil {
			return nil, err
		}
		if _, err := h.Store.WriteBlob(c.ctx, c.key, 0, c.buf); err != nil {
			return nil, err
		}
		h.clients = append(h.clients, c)
	}
	return h, nil
}

// WriteParallel performs ops write operations split round-robin across the
// per-client blobs, each client driving its share from its own goroutine
// against its own key, context, and buffer. It returns the first error.
// Callers interleave WriteParallel batches with checkpoints the way
// DriveSerial does, so the in-memory logs stay bounded.
func (h *HotPath) WriteParallel(ops int) error {
	if len(h.clients) == 0 {
		return fmt.Errorf("hotpath: fixture built without clients")
	}
	var wg sync.WaitGroup
	errs := make([]error, len(h.clients))
	per := ops / len(h.clients)
	extra := ops % len(h.clients)
	for i := range h.clients {
		n := per
		if i < extra {
			n++
		}
		if n == 0 {
			break
		}
		wg.Add(1)
		go func(i, n int) {
			defer wg.Done()
			c := &h.clients[i]
			for j := 0; j < n; j++ {
				if _, err := h.Store.WriteBlob(c.ctx, c.key, 0, c.buf); err != nil {
					errs[i] = err
					return
				}
			}
		}(i, n)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// DriveParallelWrites is the contended-write benchmark body over a
// parallel fixture: batches of CompactEvery writes split across the
// clients, alternating with out-of-timer checkpoints like DriveSerial. It
// is the single definition of that protocol — the root
// BenchmarkHotPathWriteParallel* benchmarks and the benchsuite lane sweep
// all run it, so the serial-vs-parallel and lane-vs-lane comparisons can
// never diverge in cadence.
func (h *HotPath) DriveParallelWrites(b *testing.B) {
	b.SetBytes(h.OpBytes())
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		n := CompactEvery
		if n > b.N-done {
			n = b.N - done
		}
		if err := h.WriteParallel(n); err != nil {
			b.Fatal(err)
		}
		done += n
		b.StopTimer()
		h.Store.CheckpointAll()
		b.StartTimer()
	}
}

// Warm brings the write path's logs to their steady-state high-water (see
// warm). Write benchmarks call it before the timer starts.
func (h *HotPath) Warm() error { return warm(h.Store, h.Write) }

// WarmParallel is Warm for the multi-client fixture: a double benchmark
// batch of parallel writes, then a checkpoint.
func (h *HotPath) WarmParallel() error {
	if err := h.WriteParallel(2 * CompactEvery); err != nil {
		return err
	}
	h.Store.CheckpointAll()
	return nil
}

// Read performs one 4-chunk striped read.
func (h *HotPath) Read() error {
	n, err := h.Store.ReadBlob(h.Ctx, "hot", 0, h.buf)
	if err != nil {
		return err
	}
	if n != len(h.buf) {
		return fmt.Errorf("hotpath: short read %d", n)
	}
	return nil
}

// Write performs one 4-chunk striped overwrite (a multi-chunk transaction:
// prepare + data + commit phases).
func (h *HotPath) Write() error {
	n, err := h.Store.WriteBlob(h.Ctx, "hot", 0, h.buf)
	if err != nil {
		return err
	}
	if n != len(h.buf) {
		return fmt.Errorf("hotpath: short write %d", n)
	}
	return nil
}

// runHotPath measures the serial read and write and the contended parallel
// write, the latter at the default lane count and at 1 (the pre-sharding
// layout) and 4 lanes, so the trajectory shows what the lanes buy on this
// host. Parallel ns/op counts individual writes, so the parallel/serial
// ns/op ratio is the aggregate write speed-up under contention.
func runHotPath() (Rows, error) {
	h, err := NewHotPath()
	if err != nil {
		return nil, err
	}
	if err := h.Warm(); err != nil {
		return nil, err
	}
	var rows Rows
	for _, s := range []struct {
		name string
		op   func() error
	}{{"BenchmarkHotPathRead", h.Read}, {"BenchmarkHotPathWrite", h.Write}} {
		row, err := measure(s.name, 1, func(b *testing.B) { DriveSerial(b, h.Store, h.OpBytes(), s.op) })
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	for _, lanes := range []int{0, 1, 4} {
		name := "BenchmarkHotPathWriteParallel"
		if lanes > 0 {
			name += fmt.Sprintf("/lanes=%d", lanes)
		}
		hp, err := NewHotPathParallelLanes(0, lanes)
		if err != nil {
			return nil, err
		}
		if err := hp.WarmParallel(); err != nil {
			return nil, err
		}
		row, err := measure(name, 1, hp.DriveParallelWrites)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}
