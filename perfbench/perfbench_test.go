package main

import (
	"math"
	"testing"

	"repro/internal/blob"
	"repro/internal/blobfs"
	"repro/internal/cluster"
	"repro/internal/storage"
)

type plainStore struct{ storage.BlobStore }

type sizedStore struct{ plainStore }

func (sizedStore) ChunkSize() int { return 4096 }

type renamingStore struct{ plainStore }

func (renamingStore) RenameBlob(*storage.Context, string, string) error { return nil }

type sizedRenamingStore struct{ sizedStore }

func (sizedRenamingStore) RenameBlob(*storage.Context, string, string) error { return nil }

// The traced store must offer an optional extension exactly when the
// wrapped store does, or blobfs and mpiio would take other code paths under
// tracing than without it.
func TestWrapStoreForwardsExactly(t *testing.T) {
	for _, inner := range []storage.BlobStore{plainStore{}, sizedStore{}, renamingStore{}, sizedRenamingStore{}} {
		_, wantCS := inner.(storage.ChunkSizer)
		_, wantRN := inner.(storage.BlobRenamer)
		got := wrapStore(inner, newTracer())
		cs, gotCS := got.(storage.ChunkSizer)
		_, gotRN := got.(storage.BlobRenamer)
		if gotCS != wantCS || gotRN != wantRN {
			t.Errorf("%T: wrapped ChunkSizer=%v BlobRenamer=%v, want %v %v", inner, gotCS, gotRN, wantCS, wantRN)
		}
		if gotCS && cs.ChunkSize() != 4096 {
			t.Errorf("%T: wrapped ChunkSize %d, want 4096", inner, cs.ChunkSize())
		}
	}
}

type plainFS struct{ storage.FileSystem }

type sizedFS struct{ plainFS }

func (sizedFS) ChunkSize() int { return 4096 }

func TestWrapFSForwardsExactly(t *testing.T) {
	for _, inner := range []storage.FileSystem{plainFS{}, sizedFS{}} {
		_, want := inner.(storage.ChunkSizer)
		if _, got := wrapFS(inner, newTracer()).(storage.ChunkSizer); got != want {
			t.Errorf("%T: wrapped ChunkSizer=%v, want %v", inner, got, want)
		}
	}
}

// Over the real store, a blobfs rename must reach the server-side
// RenameBlob through the traced store, and the traced FS must report the
// store's chunk size.
func TestTracedStackKeepsFastPaths(t *testing.T) {
	s := blob.New(cluster.New(cluster.Config{Nodes: clusterNodes, Seed: 1}),
		blob.Config{ChunkSize: chunkSize, Replication: replicas})
	tr := newTracer()
	fs := wrapFS(blobfs.New(wrapStore(s, tr)), tr)
	if cs, ok := fs.(storage.ChunkSizer); !ok || cs.ChunkSize() != chunkSize {
		t.Fatalf("traced FS does not report the %d-byte chunk size", chunkSize)
	}
	ctx := storage.NewContext()
	f, err := fs.Create(ctx, "/a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(ctx, 0, make([]byte, 3*chunkSize)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename(ctx, "/a", "/b"); err != nil {
		t.Fatal(err)
	}
	var renames, copies int
	for _, sp := range tr.spans() {
		switch sp.call {
		case blobRename:
			renames++
		case blobRead:
			copies++
		}
	}
	if renames != 1 || copies != 0 {
		t.Fatalf("rename made %d RenameBlob and %d ReadBlob calls, want 1 and 0", renames, copies)
	}
}

func TestAttributeSharesOverlap(t *testing.T) {
	// root [0,100) holds A [10,60) and B [40,90), which overlap over
	// [40,60); A holds a blob call [20,50).
	spans := []span{
		{start: 0, end: 100, parent: -1, layer: layerBench, call: callOp},
		{start: 10, end: 60, parent: 0, layer: layerBlobfs, call: fsReadAt},
		{start: 40, end: 90, parent: 0, layer: layerBlobfs, call: fsWriteAt},
		{start: 20, end: 50, parent: 1, layer: layerBlob, call: blobRead},
		{start: 200, end: 300, parent: -1, layer: layerBench, call: callPause},
		{start: 200, end: 260, parent: 4, layer: layerBlob, call: blobCheckpointAll},
	}
	at, err := attribute(spans, childIndex(spans))
	if err != nil {
		t.Fatal(err)
	}
	if err := at.check(); err != nil {
		t.Fatal(err)
	}
	// bench: [0,10) + [90,100) + [260,300) = 60.
	// blob: [20,40) whole + [40,50) at half weight + [200,260) = 85.
	// blobfs: A [10,20) + [50,60)/2; B [40,50)/2 + [50,60)/2 + [60,90) = 55.
	want := [numLayers]float64{layerBench: 60, layerBlobfs: 55, layerBlob: 85}
	for l, w := range want {
		if math.Abs(at.self[l]-w) > 1e-9 {
			t.Errorf("%s self = %v, want %v", layerNames[l], at.self[l], w)
		}
	}
	if at.rootTotal != 200 {
		t.Errorf("root total %v, want 200", at.rootTotal)
	}
}

func TestTracerLinksSpansThroughContext(t *testing.T) {
	tr := newTracer()
	ctx, other := storage.NewContext(), storage.NewContext()
	root := tr.begin(ctx, layerBench, callOp)
	child := tr.begin(ctx, layerBlobfs, fsOpen)
	tr.setAdopt(root)
	adopted := tr.begin(other, layerBlobfs, fsReadAt)
	tr.end(other, adopted, nil)
	tr.setAdopt(-1)
	tr.end(ctx, child, nil)
	tr.end(ctx, root, nil)
	after := tr.begin(ctx, layerBench, callOp)
	tr.end(ctx, after, nil)
	got := tr.spans()
	for i, want := range []int32{-1, root, root, -1} {
		if got[i].parent != want {
			t.Errorf("span %d parent %d, want %d", i, got[i].parent, want)
		}
	}
}

func TestTail(t *testing.T) {
	xs := make([]int64, 100)
	for i := range xs {
		xs[i] = int64(100 - i)
	}
	v, pct := tail(xs)
	if v != 90 || pct != 90 {
		t.Fatalf("tail = %v at p%v, want 90 at p90 (ten samples beyond)", v, pct)
	}
}

// Host stalls that land in one block of the window move that block's tail
// only; the median over blocks stays on the ops' own latency.
func TestBlockTailIgnoresStallsInOneBlock(t *testing.T) {
	r := &result{m: newMeter()}
	r.marks = append(r.marks, mark{})
	for round := 0; round < 400; round++ {
		for i := 0; i < 5; i++ {
			wall := int64(1 + i)
			if round < 15 && i < 2 {
				wall = 1000
			}
			r.m.samples = append(r.m.samples, sample{wall: wall})
		}
		r.marks = append(r.marks, mark{ops: len(r.m.samples)})
	}
	v, pct, blocks := r.blockTail(wallOf)
	if blocks != 4 || v != 5 || pct != 98 {
		t.Fatalf("blockTail = %v at p%v over %d blocks, want 5 at p98 over 4", v, pct, blocks)
	}
	r.marks = r.marks[:1+minRounds]
	r.m.samples = r.m.samples[:5*minRounds]
	if v, _, blocks := r.blockTail(wallOf); blocks != 1 || v != 1000 {
		t.Fatalf("short window: blockTail = %v over %d blocks, want 1000 over 1", v, blocks)
	}
}

// A clock that restarts at zero for each op queues every op behind the
// store's busy resources, so virtual latency grows through the run; the
// steady-state check must reject it.
func TestSteadyRejectsGrowingLatency(t *testing.T) {
	r := &result{m: newMeter()}
	for i := 0; i < 100; i++ {
		r.m.samples = append(r.m.samples, sample{virt: int64(1000 + 20*i)})
		r.marks = append(r.marks, mark{ops: i})
	}
	if err := r.steady(0.1); err == nil {
		t.Fatal("steady accepted virtual latency that tripled over the window")
	}
	r.marks = append(r.marks, mark{ops: 100})
	for i := range r.m.samples {
		r.m.samples[i].virt = 1000
	}
	if err := r.steady(0.1); err != nil {
		t.Fatal(err)
	}
}
