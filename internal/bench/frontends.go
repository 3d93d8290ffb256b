package bench

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/blob"
	"repro/internal/blobfs"
	"repro/internal/cluster"
	"repro/internal/ior"
	"repro/internal/s3gw"
	"repro/internal/sparksim"
	"repro/internal/storage"
	"repro/internal/workloads"
)

// The frontends experiment drives the three converged access layers of the
// paper's Section II over ONE blob data plane — the HPC path (an IOR-style
// segmented shared-file pattern), the analytics path (a SparkBench-shaped
// shuffle through sparksim), and the object path (an S3 put/get cycle
// through the HTTP gateway) — and records wall-clock plus virtual-time
// twins for each. The IOR and shuffle twins vary from run to run: their
// concurrent clients and executors book the simulated resources in arrival
// order, which follows goroutine scheduling. The S3 twin (one sequential
// client) and the rename pair repeat exactly. The gated pair is the rename
// fast path: blobfs routes Rename through blob.RenameBlob (server-side
// chunk rewrite under both descriptor latches) when the store implements
// storage.BlobRenamer, falling back to the client-side copy loop
// otherwise; the gate requires the fast path to actually beat the copy on
// simulated cost.

func newFrontendStore() *blob.Store {
	return blob.New(cluster.New(cluster.Config{Nodes: 5, Seed: 1}),
		blob.Config{ChunkSize: 64 << 10, Replication: 3})
}

func iorParams() ior.Params {
	return ior.Params{
		Clients:      8,
		TransferSize: 16 << 10,
		BlockSize:    64 << 10,
		Segments:     2,
		SharedFile:   true,
		ReadBack:     true,
		Dir:          "/ior",
	}
}

// RunIORCycle executes one full IOR write+read pass over a blobfs mount of
// fs, creating the working directory on first use.
func RunIORCycle(fs storage.FileSystem) (*ior.Result, error) {
	ctx := storage.NewContext()
	if _, err := fs.Stat(ctx, "/ior"); err != nil {
		if err := fs.Mkdir(ctx, "/ior"); err != nil {
			return nil, err
		}
	}
	return ior.Run(fs, iorParams())
}

func shuffleConfig() workloads.Config {
	// 1:2^16 scaling turns Sort's 5.8 GB in/out into ~90 KB each — big
	// enough to shuffle through every executor, small enough to iterate.
	return workloads.Config{Factor: 1 << 16, Chunk: 4096, Executors: 4}.WithDefaults()
}

// RunShuffleCycle provisions and runs the Sort application (the paper's
// shuffle-heavy SparkBench representative) over a blobfs mount of a fresh
// blob store, returning the driver context so callers can read its virtual
// clock.
func RunShuffleCycle() (*storage.Context, error) {
	fs := blobfs.New(newFrontendStore())
	cfg := shuffleConfig()
	app, err := workloads.SparkAppByName(cfg, "Sort")
	if err != nil {
		return nil, err
	}
	if err := workloads.SetupSparkEnv(fs); err != nil {
		return nil, err
	}
	if err := workloads.SetupSparkApp(fs, app); err != nil {
		return nil, err
	}
	engine := sparksim.NewEngine(fs, cfg.Executors)
	engine.SetChunkSize(cfg.Chunk)
	ctx := storage.NewContext()
	if _, err := workloads.RunSpark(engine, ctx, app); err != nil {
		return nil, err
	}
	return ctx, nil
}

const (
	s3Objects = 8
	s3ObjSize = 16 << 10
)

// runS3Cycle PUTs and GETs s3Objects objects through the gateway.
func runS3Cycle(url string, payload []byte) error {
	for i := 0; i < s3Objects; i++ {
		key := fmt.Sprintf("%s/bench/obj-%d", url, i)
		req, err := http.NewRequest(http.MethodPut, key, bytes.NewReader(payload))
		if err != nil {
			return err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("bench: PUT %s: status %d", key, resp.StatusCode)
		}
		resp, err = http.Get(key)
		if err != nil {
			return err
		}
		n, _ := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || n != int64(len(payload)) {
			return fmt.Errorf("bench: GET %s: status %d, %d bytes", key, resp.StatusCode, n)
		}
	}
	return nil
}

// noRenamer hides blob.Store's BlobRenamer (and ChunkSizer) behind the
// plain BlobStore interface, forcing blobfs onto its copy-loop fallback.
type noRenamer struct {
	storage.BlobStore
}

// VirtualRenameCost measures the simulated marginal cost of one blobfs
// Rename of a 1 MiB (16-chunk) file, through the server-side fast path
// (fast=true) or the client-side copy fallback. Fresh fixture plus one
// warm-up rename, then the mean over ops — the same deterministic-twin
// recipe VirtualWriteCost uses, and equally host-independent.
func VirtualRenameCost(fast bool, ops int) (time.Duration, error) {
	st := newFrontendStore()
	var fs *blobfs.FS
	if fast {
		fs = blobfs.New(st)
	} else {
		fs = blobfs.New(noRenamer{st})
	}
	ctx := storage.NewContext()
	h, err := fs.Create(ctx, "/payload")
	if err != nil {
		return 0, err
	}
	buf := make([]byte, 1<<20)
	for i := range buf {
		buf[i] = byte(i * 11)
	}
	if _, err := h.WriteAt(ctx, 0, buf); err != nil {
		return 0, err
	}
	if err := h.Close(ctx); err != nil {
		return 0, err
	}
	names := [2]string{"/payload", "/payload-moved"}
	if err := fs.Rename(ctx, names[0], names[1]); err != nil {
		return 0, err
	}
	start := ctx.Clock.Now()
	for i := 0; i < ops; i++ {
		if err := fs.Rename(ctx, names[(i+1)%2], names[i%2]); err != nil {
			return 0, err
		}
	}
	return (ctx.Clock.Now() - start) / time.Duration(ops), nil
}

// runFrontends measures the IOR pattern, the Sort shuffle, and the S3
// put/get cycle, then their /virtual twins and the gated rename pair.
func runFrontends() (Rows, error) {
	// HPC front end: the segmented shared-file pattern, one mount reused
	// across iterations (steady-state overwrite, like the paper's runs).
	iorStore := newFrontendStore()
	iorFS := blobfs.New(iorStore)
	p := iorParams()
	iorBytes := int64(p.Clients) * int64(p.BlockSize) * int64(p.Segments) * 2 // write + read
	// Object front end: put/get cycle over HTTP against one gateway.
	s3Store := newFrontendStore()
	srv := httptest.NewServer(s3gw.New(s3Store))
	defer srv.Close()
	payload := make([]byte, s3ObjSize)
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	var rows Rows
	for _, m := range []struct {
		name  string
		store *blob.Store
		bytes int64
		cycle func() error
	}{
		{"BenchmarkFrontendIOR", iorStore, iorBytes, func() error { _, err := RunIORCycle(iorFS); return err }},
		// Analytics front end: full provision+run cycle on a fresh mount
		// per iteration (Spark jobs are one-shot; staging dirs are torn
		// down by the committer, inputs are not).
		{"BenchmarkFrontendShuffle", nil, 0, func() error { _, err := RunShuffleCycle(); return err }},
		{"BenchmarkFrontendS3", s3Store, int64(s3Objects) * s3ObjSize * 2, func() error { return runS3Cycle(srv.URL, payload) }},
	} {
		row, err := measure(m.name, 3, func(b *testing.B) { DriveSerial(b, m.store, m.bytes, m.cycle) })
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}

	// Virtual twins, each on a fresh fixture.
	iorTwin, err := RunIORCycle(blobfs.New(newFrontendStore()))
	if err != nil {
		return nil, fmt.Errorf("bench: ior twin: %w", err)
	}
	rows = append(rows, Row{
		Name:     "BenchmarkFrontendIOR/virtual",
		NsPerOp:  int64(iorTwin.WriteTime + iorTwin.ReadTime),
		MBPerSec: iorTwin.WriteMBps,
	})
	shuffleCtx, err := RunShuffleCycle()
	if err != nil {
		return nil, fmt.Errorf("bench: shuffle twin: %w", err)
	}
	rows = append(rows, Row{Name: "BenchmarkFrontendShuffle/virtual", NsPerOp: int64(shuffleCtx.Clock.Now())})
	s3Gateway := s3gw.New(newFrontendStore())
	s3TwinSrv := httptest.NewServer(s3Gateway)
	err = runS3Cycle(s3TwinSrv.URL, payload)
	s3TwinSrv.Close()
	if err != nil {
		return nil, fmt.Errorf("bench: s3 twin: %w", err)
	}
	rows = append(rows, Row{Name: "BenchmarkFrontendS3/virtual", NsPerOp: int64(s3Gateway.TotalVirtualTime()) / (s3Objects * 2)})

	for _, mode := range []struct {
		name string
		fast bool
	}{{"fastpath", true}, {"copy", false}} {
		v, err := VirtualRenameCost(mode.fast, virtualOps)
		if err != nil {
			return nil, fmt.Errorf("bench: rename %s: %w", mode.name, err)
		}
		rows = append(rows, Row{Name: "BenchmarkFrontendRename/" + mode.name + "/virtual", NsPerOp: int64(v)})
	}
	return rows, nil
}
