package main

import (
	"sync"
	"time"

	"repro/internal/storage"
)

// layer names the module a span's time belongs to. Spans are recorded
// around calls into each layer's public functions, from this package only:
// the program under test is not instrumented.
type layer uint8

const (
	layerBench    layer = iota // the workload generator: root spans
	layerSparksim              // sparksim.Engine.Run
	layerBlobfs                // storage.FileSystem / Handle calls on blobfs
	layerBlob                  // storage.BlobStore calls and blob.Store administration
	numLayers
)

var layerNames = [numLayers]string{"bench", "sparksim", "blobfs", "blob"}

// call names the traced function. The first block are the workload's root
// spans; the rest are the layer calls reported per call.
type call uint8

const (
	callOp    call = iota // one workload op: a checkpoint step, a Spark job, an object request
	callPause             // barrier work between ops: checkpoint or restart
	callJob               // sparksim.Engine.Run

	fsCreate
	fsOpen
	fsStat
	fsMkdir
	fsRmdir
	fsReadDir
	fsRename
	fsUnlink
	fsReadAt
	fsWriteAt
	fsClose
	fsSync
	fsTruncate
	fsChmod
	fsGetXattr
	fsSetXattr

	blobCreate
	blobDelete
	blobRead
	blobWrite
	blobTruncate
	blobSize
	blobScan
	blobRename
	blobCheckpointAll
	blobCrash
	blobRecover
	blobCheckInvariants
	numCalls
)

var callNames = [numCalls]string{
	"op", "pause", "Run",
	"Create", "Open", "Stat", "Mkdir", "Rmdir", "ReadDir", "Rename", "Unlink",
	"ReadAt", "WriteAt", "Close", "Sync", "Truncate", "Chmod", "GetXattr", "SetXattr",
	"CreateBlob", "DeleteBlob", "ReadBlob", "WriteBlob", "TruncateBlob", "BlobSize",
	"Scan", "RenameBlob", "CheckpointAll", "Crash", "Recover", "CheckInvariants",
}

// span is one timed call. Times are nanoseconds since the tracer's epoch
// on the monotonic clock; vdur is the virtual time the call's context
// clock advanced, for calls that carry a context.
type span struct {
	start, end int64
	vdur       int64
	bytes      int64
	parent     int32
	layer      layer
	call       call
	failed     bool
	multichunk bool
}

// spanBlock is the allocation unit of the span log: blocks never move, so a
// goroutine may fill in the span it owns without holding the tracer lock.
const spanBlock = 1 << 14

// tracer keeps every span in memory until the run ends. A span's parent is
// the innermost open span of the *storage.Context the call carries; calls
// on a context with no open span (sparksim's forked executor contexts, the
// ranks of a checkpoint step) are adopted by the span set with setAdopt.
//
// All methods are safe on a nil tracer and do nothing, so workload code
// calls them unconditionally and an untraced run records nothing.
type tracer struct {
	epoch time.Time

	mu     sync.Mutex
	blocks [][]span
	n      int32
	open   map[*storage.Context][]int32
	adopt  int32
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), open: make(map[*storage.Context][]int32), adopt: -1}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span for a call carrying ctx (nil for calls without one)
// and returns its index, or -1 on a nil tracer.
func (t *tracer) begin(ctx *storage.Context, l layer, c call) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	parent := t.adopt
	if stack := t.open[ctx]; len(stack) > 0 {
		parent = stack[len(stack)-1]
	}
	if int(t.n)%spanBlock == 0 {
		t.blocks = append(t.blocks, make([]span, spanBlock))
	}
	idx := t.n
	t.n++
	sp := &t.blocks[idx/spanBlock][idx%spanBlock]
	if ctx != nil {
		t.open[ctx] = append(t.open[ctx], idx)
	}
	t.mu.Unlock()
	sp.parent, sp.layer, sp.call = parent, l, c
	sp.start = t.now()
	return idx
}

// end closes span idx, opened by begin with the same ctx, and returns it
// for annotation by the calling goroutine (nil on a nil tracer).
func (t *tracer) end(ctx *storage.Context, idx int32, err error) *span {
	if t == nil {
		return nil
	}
	end := t.now()
	t.mu.Lock()
	sp := &t.blocks[idx/spanBlock][idx%spanBlock]
	if ctx != nil {
		stack := t.open[ctx]
		if len(stack) <= 1 {
			delete(t.open, ctx)
		} else {
			t.open[ctx] = stack[:len(stack)-1]
		}
	}
	t.mu.Unlock()
	sp.end = end
	sp.failed = err != nil
	return sp
}

// setAdopt makes span idx (or -1 for none) the parent of calls whose
// context has no open span.
func (t *tracer) setAdopt(idx int32) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.adopt = idx
	t.mu.Unlock()
}

// spans returns the log as one slice and empties the tracer, releasing
// each block once copied. Call it only once every traced goroutine has
// finished.
func (t *tracer) spans() []span {
	out := make([]span, 0, t.n)
	for b := range t.blocks {
		out = append(out, t.blocks[b][:min(spanBlock, int(t.n)-len(out))]...)
		t.blocks[b] = nil
	}
	t.blocks, t.n = nil, 0
	return out
}

// traceFS wraps a storage.FileSystem, recording a blobfs span per call.
type traceFS struct {
	inner storage.FileSystem
	tr    *tracer
}

// chunkSizedFS is traceFS over a file system that implements
// storage.ChunkSizer, which it forwards untraced.
type chunkSizedFS struct {
	*traceFS
	storage.ChunkSizer
}

// wrapFS returns the traced file system. It implements storage.ChunkSizer
// exactly when inner does: mpiio aligns collective writes to it, so hiding
// it would change the program being measured.
func wrapFS(inner storage.FileSystem, tr *tracer) storage.FileSystem {
	f := &traceFS{inner: inner, tr: tr}
	if cs, ok := inner.(storage.ChunkSizer); ok {
		return chunkSizedFS{f, cs}
	}
	return f
}

func (f *traceFS) Create(ctx *storage.Context, path string) (storage.Handle, error) {
	sp := f.tr.begin(ctx, layerBlobfs, fsCreate)
	h, err := f.inner.Create(ctx, path)
	f.tr.end(ctx, sp, err)
	if err != nil {
		return nil, err
	}
	return &traceHandle{inner: h, tr: f.tr}, nil
}

func (f *traceFS) Open(ctx *storage.Context, path string) (storage.Handle, error) {
	sp := f.tr.begin(ctx, layerBlobfs, fsOpen)
	h, err := f.inner.Open(ctx, path)
	f.tr.end(ctx, sp, err)
	if err != nil {
		return nil, err
	}
	return &traceHandle{inner: h, tr: f.tr}, nil
}

func (f *traceFS) Unlink(ctx *storage.Context, path string) error {
	sp := f.tr.begin(ctx, layerBlobfs, fsUnlink)
	err := f.inner.Unlink(ctx, path)
	f.tr.end(ctx, sp, err)
	return err
}

func (f *traceFS) Stat(ctx *storage.Context, path string) (storage.FileInfo, error) {
	sp := f.tr.begin(ctx, layerBlobfs, fsStat)
	fi, err := f.inner.Stat(ctx, path)
	f.tr.end(ctx, sp, err)
	return fi, err
}

func (f *traceFS) Truncate(ctx *storage.Context, path string, size int64) error {
	sp := f.tr.begin(ctx, layerBlobfs, fsTruncate)
	err := f.inner.Truncate(ctx, path, size)
	f.tr.end(ctx, sp, err)
	return err
}

func (f *traceFS) Rename(ctx *storage.Context, oldPath, newPath string) error {
	sp := f.tr.begin(ctx, layerBlobfs, fsRename)
	err := f.inner.Rename(ctx, oldPath, newPath)
	f.tr.end(ctx, sp, err)
	return err
}

func (f *traceFS) Mkdir(ctx *storage.Context, path string) error {
	sp := f.tr.begin(ctx, layerBlobfs, fsMkdir)
	err := f.inner.Mkdir(ctx, path)
	f.tr.end(ctx, sp, err)
	return err
}

func (f *traceFS) Rmdir(ctx *storage.Context, path string) error {
	sp := f.tr.begin(ctx, layerBlobfs, fsRmdir)
	err := f.inner.Rmdir(ctx, path)
	f.tr.end(ctx, sp, err)
	return err
}

func (f *traceFS) ReadDir(ctx *storage.Context, path string) ([]storage.DirEntry, error) {
	sp := f.tr.begin(ctx, layerBlobfs, fsReadDir)
	ents, err := f.inner.ReadDir(ctx, path)
	f.tr.end(ctx, sp, err)
	return ents, err
}

func (f *traceFS) Chmod(ctx *storage.Context, path string, mode uint32) error {
	sp := f.tr.begin(ctx, layerBlobfs, fsChmod)
	err := f.inner.Chmod(ctx, path, mode)
	f.tr.end(ctx, sp, err)
	return err
}

func (f *traceFS) GetXattr(ctx *storage.Context, path, name string) (string, error) {
	sp := f.tr.begin(ctx, layerBlobfs, fsGetXattr)
	v, err := f.inner.GetXattr(ctx, path, name)
	f.tr.end(ctx, sp, err)
	return v, err
}

func (f *traceFS) SetXattr(ctx *storage.Context, path, name, value string) error {
	sp := f.tr.begin(ctx, layerBlobfs, fsSetXattr)
	err := f.inner.SetXattr(ctx, path, name, value)
	f.tr.end(ctx, sp, err)
	return err
}

type traceHandle struct {
	inner storage.Handle
	tr    *tracer
}

func (h *traceHandle) ReadAt(ctx *storage.Context, off int64, p []byte) (int, error) {
	sp := h.tr.begin(ctx, layerBlobfs, fsReadAt)
	n, err := h.inner.ReadAt(ctx, off, p)
	h.tr.end(ctx, sp, err)
	return n, err
}

func (h *traceHandle) WriteAt(ctx *storage.Context, off int64, p []byte) (int, error) {
	sp := h.tr.begin(ctx, layerBlobfs, fsWriteAt)
	n, err := h.inner.WriteAt(ctx, off, p)
	h.tr.end(ctx, sp, err)
	return n, err
}

func (h *traceHandle) Sync(ctx *storage.Context) error {
	sp := h.tr.begin(ctx, layerBlobfs, fsSync)
	err := h.inner.Sync(ctx)
	h.tr.end(ctx, sp, err)
	return err
}

func (h *traceHandle) Close(ctx *storage.Context) error {
	sp := h.tr.begin(ctx, layerBlobfs, fsClose)
	err := h.inner.Close(ctx)
	h.tr.end(ctx, sp, err)
	return err
}

// traceStore wraps a storage.BlobStore, recording a blob span per call with
// the virtual time the call's clock advanced.
type traceStore struct {
	inner storage.BlobStore
	tr    *tracer
	chunk int64 // the inner store's chunk size, 0 when it has none
}

// traceRenamer adds the traced storage.BlobRenamer method.
type traceRenamer struct {
	t  *traceStore
	rn storage.BlobRenamer
}

// wrapStore returns the traced blob store. It implements storage.ChunkSizer
// and storage.BlobRenamer exactly when inner does: blobfs picks its rename
// path by asking for BlobRenamer, so hiding it would make the traced run
// measure the copy-loop rename instead of the server-side one.
func wrapStore(inner storage.BlobStore, tr *tracer) storage.BlobStore {
	t := &traceStore{inner: inner, tr: tr}
	cs, hasCS := inner.(storage.ChunkSizer)
	if hasCS {
		t.chunk = int64(cs.ChunkSize())
	}
	rn, hasRN := inner.(storage.BlobRenamer)
	switch {
	case hasCS && hasRN:
		return struct {
			*traceStore
			storage.ChunkSizer
			traceRenamer
		}{t, cs, traceRenamer{t, rn}}
	case hasCS:
		return struct {
			*traceStore
			storage.ChunkSizer
		}{t, cs}
	case hasRN:
		return struct {
			*traceStore
			traceRenamer
		}{t, traceRenamer{t, rn}}
	}
	return t
}

// begin opens a blob span and samples the call's clock.
func (t *traceStore) begin(ctx *storage.Context, c call) (int32, time.Duration) {
	return t.tr.begin(ctx, layerBlob, c), ctx.Clock.Now()
}

// end closes the blob span with the virtual time its clock advanced.
func (t *traceStore) end(ctx *storage.Context, sp int32, v0 time.Duration, err error) *span {
	s := t.tr.end(ctx, sp, err)
	s.vdur = int64(ctx.Clock.Now() - v0)
	return s
}

func (t *traceStore) CreateBlob(ctx *storage.Context, key string) error {
	sp, v0 := t.begin(ctx, blobCreate)
	err := t.inner.CreateBlob(ctx, key)
	t.end(ctx, sp, v0, err)
	return err
}

func (t *traceStore) DeleteBlob(ctx *storage.Context, key string) error {
	sp, v0 := t.begin(ctx, blobDelete)
	err := t.inner.DeleteBlob(ctx, key)
	t.end(ctx, sp, v0, err)
	return err
}

func (t *traceStore) ReadBlob(ctx *storage.Context, key string, off int64, p []byte) (int, error) {
	sp, v0 := t.begin(ctx, blobRead)
	n, err := t.inner.ReadBlob(ctx, key, off, p)
	t.end(ctx, sp, v0, err).bytes = int64(n)
	return n, err
}

func (t *traceStore) WriteBlob(ctx *storage.Context, key string, off int64, p []byte) (int, error) {
	sp, v0 := t.begin(ctx, blobWrite)
	n, err := t.inner.WriteBlob(ctx, key, off, p)
	s := t.end(ctx, sp, v0, err)
	s.bytes = int64(n)
	s.multichunk = t.chunk > 0 && len(p) > 0 && off/t.chunk != (off+int64(len(p))-1)/t.chunk
	return n, err
}

func (t *traceStore) TruncateBlob(ctx *storage.Context, key string, size int64) error {
	sp, v0 := t.begin(ctx, blobTruncate)
	err := t.inner.TruncateBlob(ctx, key, size)
	t.end(ctx, sp, v0, err)
	return err
}

func (t *traceStore) BlobSize(ctx *storage.Context, key string) (int64, error) {
	sp, v0 := t.begin(ctx, blobSize)
	size, err := t.inner.BlobSize(ctx, key)
	t.end(ctx, sp, v0, err)
	return size, err
}

func (t *traceStore) Scan(ctx *storage.Context, prefix string) ([]storage.BlobInfo, error) {
	sp, v0 := t.begin(ctx, blobScan)
	infos, err := t.inner.Scan(ctx, prefix)
	t.end(ctx, sp, v0, err)
	return infos, err
}

func (r traceRenamer) RenameBlob(ctx *storage.Context, oldKey, newKey string) error {
	sp, v0 := r.t.begin(ctx, blobRename)
	err := r.rn.RenameBlob(ctx, oldKey, newKey)
	r.t.end(ctx, sp, v0, err)
	return err
}
