package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"sync/atomic"
	"time"

	"repro/internal/sparksim"
	"repro/internal/storage"
	"repro/internal/workloads"
)

// spark-suite: the paper's five SparkBench applications through sparksim
// over blobfs, one job at a time from one driver, in a seeded rotation.
const (
	sparkFactor = 1 << 16 // divides the paper's byte volumes
	sparkIOUnit = 4 << 10
	// sparkExecutors is 1 so that a job's virtual time does not depend on
	// thread scheduling. sparksim hands each split to whichever executor is
	// free, and the cluster books resources in the order calls arrive; with
	// 2 executors, host load shifted the same seed's vlat_p50_ms between 81
	// and 65 ms in the middle of a window.
	sparkExecutors = 1
)

type sparkSuite struct {
	e    *env
	apps []workloads.SparkApp
	ctx  *storage.Context // the driver's
	rng  *rand.Rand
	in   *checkFS

	fs  storage.FileSystem // for output checks and cleanup
	eng *sparksim.Engine

	prevWall time.Time
	prevVirt time.Duration
}

func newSpark(seed uint64) (workload, error) {
	s := &sparkSuite{
		e: newEnv(seed),
		apps: workloads.SparkApps(workloads.Config{
			Factor: sparkFactor, Chunk: sparkIOUnit, Executors: sparkExecutors}),
		ctx: storage.NewContext(),
		rng: rand.New(rand.NewPCG(seed, 0x737061726b)),
	}
	s.in = &checkFS{pat: newPattern(seed), files: make(map[string]uint64)}
	if err := workloads.SetupSparkEnv(s.e.fs); err != nil {
		return nil, err
	}
	// Seeded directory names place each seed's files on other nodes, so
	// virtual times differ between seeds as placement does.
	for ai := range s.apps {
		a := &s.apps[ai].App
		tag := mix(seed, uint64(ai)) & 0xffff
		a.InputDir = fmt.Sprintf("%s-%04x", a.InputDir, tag)
		a.OutputDir = fmt.Sprintf("%s-%04x", a.OutputDir, tag)
	}
	for ai, app := range s.apps {
		for _, dir := range []string{app.App.InputDir, app.App.OutputDir} {
			if err := s.e.fs.Mkdir(s.ctx, dir); err != nil {
				return nil, err
			}
		}
		per := app.InputBytes / int64(app.Splits)
		for i := 0; i < app.Splits; i++ {
			size := per
			if i == app.Splits-1 {
				size = app.InputBytes - per*int64(app.Splits-1)
			}
			path := fmt.Sprintf("%s/part-%04d", app.App.InputDir, i)
			id := mix(seed, uint64(ai), uint64(i))
			if err := writeFile(s.e.fs, s.ctx, path, s.in.pat, id, size); err != nil {
				return nil, err
			}
			s.in.files[path] = id
		}
	}
	s.setTracer(nil)
	return s, nil
}

// writeFile creates path holding size bytes of content id.
func writeFile(fs storage.FileSystem, ctx *storage.Context, path string, pat *pattern, id uint64, size int64) error {
	f, err := fs.Create(ctx, path)
	if err != nil {
		return err
	}
	for off := int64(0); off < size; {
		n := int(min(size-off, 256<<10))
		if _, err := f.WriteAt(ctx, off, pat.at(id, off, n)); err != nil {
			f.Close(ctx)
			return err
		}
		off += int64(n)
	}
	return f.Close(ctx)
}

func (s *sparkSuite) setTracer(tr *tracer) {
	s.e.tr = tr
	s.fs = s.e.fs
	if tr != nil {
		_, s.fs = s.e.traced(tr)
	}
	s.in.FileSystem = s.fs
	s.eng = sparksim.NewEngine(s.in, sparkExecutors)
	s.eng.SetChunkSize(sparkIOUnit)
}

func (s *sparkSuite) startWindow(m *meter) {
	s.prevWall = m.start
	s.prevVirt = s.ctx.Clock.Now()
}

func (s *sparkSuite) clock() time.Duration { return s.ctx.Clock.Now() }

// round runs every application once, in an order drawn from the seed, then
// checkpoints every server's log.
func (s *sparkSuite) round(m *meter) error {
	for _, i := range s.rng.Perm(len(s.apps)) {
		s.job(m, s.apps[i])
	}
	s.e.checkpointPause(m)
	return nil
}

// job is one op: run the application, check what it read and wrote, and
// remove its output files so the next run of it starts clean.
func (s *sparkSuite) job(m *meter, app workloads.SparkApp) {
	tr := s.e.tr
	root := tr.begin(s.ctx, layerBench, callOp)
	badReads := s.in.bad.Load()
	run := tr.begin(s.ctx, layerSparksim, callJob)
	tr.setAdopt(run)
	res, err := s.eng.Run(s.ctx, app.App)
	tr.setAdopt(-1)
	tr.end(s.ctx, run, err)
	if err == nil {
		err = s.checkOutput(app, res)
	}
	if err == nil && s.in.bad.Load() != badReads {
		err = fmt.Errorf("%s read wrong bytes", app.Name)
	}
	tr.end(s.ctx, root, err)
	now, t := time.Now(), s.ctx.Clock.Now()
	m.samples = append(m.samples, sample{
		done: int64(now.Sub(m.start)),
		wall: int64(now.Sub(s.prevWall)),
		virt: int64(t - s.prevVirt),
		bad:  err != nil,
	})
	s.prevWall, s.prevVirt = now, t
	if res != nil {
		m.bytes += res.BytesRead + res.BytesWritten
		m.written += res.BytesWritten
	}
}

// checkOutput verifies the job's byte counts and committed part files, then
// unlinks the parts and the _SUCCESS marker.
func (s *sparkSuite) checkOutput(app workloads.SparkApp, res *sparksim.Result) error {
	a := app.App
	if want := app.InputBytes * int64(max(a.Passes, 1)); res.BytesRead != want {
		return fmt.Errorf("%s read %d bytes, want %d", a.Name, res.BytesRead, want)
	}
	for task := 0; task < a.OutputTasks; task++ {
		part := fmt.Sprintf("%s/part-%05d", a.OutputDir, task)
		fi, err := s.fs.Stat(s.ctx, part)
		if err != nil {
			return err
		}
		if want := a.OutputBytes(task, app.InputBytes); fi.Size != want {
			return fmt.Errorf("%s: %s holds %d bytes, want %d", a.Name, part, fi.Size, want)
		}
		if err := s.fs.Unlink(s.ctx, part); err != nil {
			return err
		}
	}
	return s.fs.Unlink(s.ctx, a.OutputDir+"/_SUCCESS")
}

// checkFS verifies every read of a known input file against the content it
// was written with. Other calls pass through.
type checkFS struct {
	storage.FileSystem
	pat   *pattern
	files map[string]uint64 // input path -> content id; read-only after setup
	bad   atomic.Int64      // reads that returned wrong bytes
}

func (c *checkFS) Open(ctx *storage.Context, path string) (storage.Handle, error) {
	h, err := c.FileSystem.Open(ctx, path)
	if id, ok := c.files[path]; ok && err == nil {
		return &checkHandle{Handle: h, fs: c, id: id}, nil
	}
	return h, err
}

type checkHandle struct {
	storage.Handle
	fs *checkFS
	id uint64
}

func (h *checkHandle) ReadAt(ctx *storage.Context, off int64, p []byte) (int, error) {
	n, err := h.Handle.ReadAt(ctx, off, p)
	if n > 0 && !bytes.Equal(p[:n], h.fs.pat.at(h.id, off, n)) {
		h.fs.bad.Add(1)
	}
	return n, err
}

func (s *sparkSuite) env() *env { return s.e }
