package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"repro/internal/blob"
	"repro/internal/blobfs"
	"repro/internal/cluster"
	"repro/internal/storage"
)

// The simulated cluster every workload runs on.
const (
	clusterNodes = 5
	chunkSize    = 64 << 10
	replicas     = 3
	// clients is the number of client goroutines driving a workload: one
	// per CPU of the 2-CPU host the benchmark is sized for.
	clients = 2
)

// env is one store and the front-ends over it. The traced twins share the
// store; only the call path differs.
type env struct {
	store *blob.Store
	fs    storage.FileSystem // blobfs over the store
	tr    *tracer            // nil when untraced
}

func newEnv(seed uint64) *env {
	c := cluster.New(cluster.Config{Nodes: clusterNodes, Seed: seed})
	s := blob.New(c, blob.Config{ChunkSize: chunkSize, Replication: replicas})
	return &env{store: s, fs: blobfs.New(s)}
}

// traced returns the front-ends for a traced window: blobfs over the traced
// store, wrapped in the traced file system.
func (e *env) traced(tr *tracer) (storage.BlobStore, storage.FileSystem) {
	bs := wrapStore(e.store, tr)
	return bs, wrapFS(blobfs.New(bs), tr)
}

// walBytes sums the write-ahead log across nodes. Exact only while the
// store is quiescent, which it is at every barrier that calls it.
func (e *env) walBytes() int64 {
	var n int64
	for i := 0; i < clusterNodes; i++ {
		n += e.store.WALSize(cluster.NodeID(i))
	}
	return n
}

// checkpoint runs CheckpointAll at a barrier and books its cost and the log
// growth since the previous one.
func (e *env) checkpoint(m *meter) {
	pre := e.walBytes()
	if m.lastPost >= 0 {
		m.walGrowth += pre - m.lastPost
		m.walGrowthUser += m.written - m.writtenAtPost
	}
	sp := e.tr.begin(nil, layerBlob, blobCheckpointAll)
	t0 := time.Now()
	e.store.CheckpointAll()
	m.ckpt = append(m.ckpt, time.Since(t0))
	e.tr.end(nil, sp, nil)
	m.lastPost = e.walBytes()
	m.writtenAtPost = m.written
	m.walRewritten = append(m.walRewritten, m.lastPost)
}

// checkpointPause is a barrier pause that only checkpoints, traced as a
// root span of its own.
func (e *env) checkpointPause(m *meter) {
	root := e.tr.begin(nil, layerBench, callPause)
	e.tr.setAdopt(root)
	e.checkpoint(m)
	e.tr.setAdopt(-1)
	e.tr.end(nil, root, nil)
}

// crashRecover crashes node, replays its log and checks the store's
// cross-replica invariants.
func (e *env) crashRecover(m *meter, node cluster.NodeID) error {
	m.recoverBytes += e.store.WALSize(node)
	sp := e.tr.begin(nil, layerBlob, blobCrash)
	e.store.Crash(node)
	e.tr.end(nil, sp, nil)
	sp = e.tr.begin(nil, layerBlob, blobRecover)
	t0 := time.Now()
	err := e.store.Recover(node)
	m.recoveries = append(m.recoveries, time.Since(t0))
	e.tr.end(nil, sp, err)
	if err != nil {
		return fmt.Errorf("recover node %d: %w", node, err)
	}
	sp = e.tr.begin(nil, layerBlob, blobCheckInvariants)
	bad := e.store.CheckInvariants()
	e.tr.end(nil, sp, nil)
	if bad != "" {
		return fmt.Errorf("invariants after recovering node %d: %s", node, bad)
	}
	return nil
}

// liveBytes sums the size of every blob in the store.
func (e *env) liveBytes(ctx *storage.Context) (int64, error) {
	infos, err := e.store.Scan(ctx, "")
	if err != nil {
		return 0, err
	}
	var n int64
	for _, in := range infos {
		n += in.Size
	}
	return n, nil
}

// barrier joins clocks at their latest time, as a synchronisation point
// where the slowest participant sets completion, and returns that time.
func barrier(ctxs ...*storage.Context) time.Duration {
	var t time.Duration
	for _, c := range ctxs {
		t = max(t, c.Clock.Now())
	}
	for _, c := range ctxs {
		c.Clock.AdvanceTo(t)
	}
	return t
}

// pattern is seeded content: every file or object is a window into one
// random buffer at an offset derived from its identity, so data is never
// generated on the hot path and any byte can be checked.
type pattern struct {
	buf []byte // the random block, twice over
	n   int64  // length of the block
}

// patternLen is prime, so windows of different files rarely align.
const patternLen = 1<<20 + 7

func newPattern(seed uint64) *pattern {
	r := rand.New(rand.NewPCG(seed, 0x70617474))
	buf := make([]byte, 2*patternLen)
	for i := 0; i < patternLen; i++ {
		buf[i] = byte(r.Uint32())
	}
	copy(buf[patternLen:], buf[:patternLen])
	return &pattern{buf: buf, n: patternLen}
}

// at returns n bytes (n <= patternLen) of the content whose identity
// hashes to id, starting at offset off.
func (p *pattern) at(id uint64, off int64, n int) []byte {
	s := (int64(id%uint64(p.n)) + off%p.n) % p.n
	return p.buf[s : s+int64(n)]
}

// mix hashes its arguments (splitmix64 finaliser over a running sum).
func mix(xs ...uint64) uint64 {
	var h uint64 = 0x9e3779b97f4a7c15
	for _, x := range xs {
		h ^= x + 0x9e3779b97f4a7c15 + h<<6 + h>>2
		h ^= h >> 30
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}
