package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/storage"
)

// hpc-ckpt: N-1 shared-file checkpoint/restart over blobfs, in the shape of
// IOR (segmented shared file) and BlobCR (periodic checkpoints that must
// survive a node failure).
const (
	hpcRanks = 8         // driven hpcRanks/clients per client goroutine
	hpcBlock = 4 << 20   // bytes each rank writes per step
	hpcXfer  = 256 << 10 // one transfer: four 64 KiB chunks, so a 2PC write
	hpcKeep  = 2         // steps kept; older ones are unlinked
	hpcEvery = 3         // steps per restart and CheckpointAll
	hpcDir   = "/ckpt"
)

type hpcCkpt struct {
	e     *env
	fs    storage.FileSystem
	pat   *pattern
	seed  uint64
	rng   *rand.Rand // picks the node to crash
	ranks [hpcRanks]*storage.Context
	bufs  [clients][]byte
	step  int

	prevWall time.Time
	prevVirt time.Duration
}

func newHPC(seed uint64) (workload, error) {
	h := &hpcCkpt{e: newEnv(seed), pat: newPattern(seed), seed: seed,
		rng: rand.New(rand.NewPCG(seed, 0x637261736))}
	h.fs = h.e.fs
	setup := storage.NewContext()
	if err := h.fs.Mkdir(setup, hpcDir); err != nil {
		return nil, err
	}
	for r := range h.ranks {
		h.ranks[r] = setup.Fork()
	}
	for c := range h.bufs {
		h.bufs[c] = make([]byte, hpcXfer)
	}
	// Preload the retained steps, so runs start at the live data size.
	m := newMeter()
	h.startWindow(m)
	for i := 0; i < hpcKeep; i++ {
		h.writeStep(m)
	}
	if n := m.failed(); n > 0 {
		return nil, fmt.Errorf("preload: %d checkpoint steps failed", n)
	}
	return h, nil
}

func (h *hpcCkpt) path(step int) string { return fmt.Sprintf("%s/step-%06d", hpcDir, step) }

func (h *hpcCkpt) content(step, rank int) uint64 { return mix(h.seed, uint64(step), uint64(rank)) }

func (h *hpcCkpt) setTracer(tr *tracer) {
	h.e.tr = tr
	h.fs = h.e.fs
	if tr != nil {
		_, h.fs = h.e.traced(tr)
	}
}

func (h *hpcCkpt) startWindow(m *meter) {
	h.prevWall = m.start
	h.prevVirt = barrier(h.ranks[:]...)
}

func (h *hpcCkpt) clock() time.Duration { return barrier(h.ranks[:]...) }

// round runs hpcEvery checkpoint steps, then the restart and the
// CheckpointAll at the last step's barrier.
func (h *hpcCkpt) round(m *meter) error {
	for i := 0; i < hpcEvery; i++ {
		h.writeStep(m)
	}
	return h.pause(m)
}

// writeStep is one op: rank 0 creates the step's shared file, every rank
// writes its block in transfers, rank 0 unlinks the step falling out of
// retention, and the ranks meet at a barrier. A failed step is recorded
// as a failed op.
func (h *hpcCkpt) writeStep(m *meter) {
	h.step++
	step := h.step
	tr := h.e.tr
	root := tr.begin(nil, layerBench, callOp)
	tr.setAdopt(root)
	path := h.path(step)
	var errs [clients + 1]error
	if f, err := h.fs.Create(h.ranks[0], path); err != nil {
		errs[clients] = err
	} else {
		errs[clients] = f.Close(h.ranks[0])
	}
	if errs[clients] == nil {
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[c] = h.writeRanks(c, path, step)
			}()
		}
		wg.Wait()
	}
	if step > hpcKeep && errs[clients] == nil {
		errs[clients] = h.fs.Unlink(h.ranks[0], h.path(step-hpcKeep))
	}
	t := barrier(h.ranks[:]...)
	tr.setAdopt(-1)
	var err error
	for _, e := range errs {
		if e != nil && err == nil {
			err = e
		}
	}
	tr.end(nil, root, err)
	now := time.Now()
	m.samples = append(m.samples, sample{
		done: int64(now.Sub(m.start)),
		wall: int64(now.Sub(h.prevWall)),
		virt: int64(t - h.prevVirt),
		bad:  err != nil,
	})
	h.prevWall, h.prevVirt = now, t
	m.bytes += hpcRanks * hpcBlock
	m.written += hpcRanks * hpcBlock
}

// rankSet returns the ranks client c drives.
func rankSet(c int) (lo, hi int) {
	per := hpcRanks / clients
	return c * per, (c + 1) * per
}

// writeRanks writes the blocks of client c's ranks, one transfer per rank
// in turn, so the ranks progress together as concurrent processes would.
func (h *hpcCkpt) writeRanks(c int, path string, step int) error {
	lo, hi := rankSet(c)
	handles := make([]storage.Handle, 0, hi-lo)
	err := func() error {
		for r := lo; r < hi; r++ {
			f, err := h.fs.Open(h.ranks[r], path)
			if err != nil {
				return err
			}
			handles = append(handles, f)
		}
		for off := int64(0); off < hpcBlock; off += hpcXfer {
			for r := lo; r < hi; r++ {
				data := h.pat.at(h.content(step, r), off, hpcXfer)
				n, err := handles[r-lo].WriteAt(h.ranks[r], int64(r)*hpcBlock+off, data)
				if err != nil {
					return err
				}
				if n != hpcXfer {
					return fmt.Errorf("rank %d: short write %d at %d", r, n, off)
				}
			}
		}
		return nil
	}()
	for i, f := range handles {
		if cerr := f.Close(h.ranks[lo+i]); err == nil {
			err = cerr
		}
	}
	return err
}

// pause crashes a node chosen by the seed, recovers it, checks the store's
// invariants, reads the latest step back and verifies every byte, then
// checkpoints every server's log.
func (h *hpcCkpt) pause(m *meter) error {
	tr := h.e.tr
	root := tr.begin(nil, layerBench, callPause)
	tr.setAdopt(root)
	defer tr.setAdopt(-1)
	t0 := time.Now()
	node := cluster.NodeID(h.rng.IntN(clusterNodes))
	err := h.e.crashRecover(m, node)
	if err == nil {
		var errs [clients]error
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[c] = h.verifyRanks(c, h.step)
			}()
		}
		wg.Wait()
		barrier(h.ranks[:]...)
		for _, e := range errs {
			if e != nil && err == nil {
				err = e
			}
		}
		m.bytes += hpcRanks * hpcBlock
	}
	m.restart = append(m.restart, time.Since(t0))
	if err == nil {
		h.e.checkpoint(m)
	}
	tr.end(nil, root, err)
	if err != nil {
		return fmt.Errorf("restart after step %d: %w", h.step, err)
	}
	return nil
}

// verifyRanks reads back client c's ranks' blocks of step and compares
// every byte with what was written.
func (h *hpcCkpt) verifyRanks(c int, step int) error {
	lo, hi := rankSet(c)
	buf := h.bufs[c]
	for r := lo; r < hi; r++ {
		f, err := h.fs.Open(h.ranks[r], h.path(step))
		if err != nil {
			return err
		}
		for off := int64(0); off < hpcBlock; off += hpcXfer {
			n, err := f.ReadAt(h.ranks[r], int64(r)*hpcBlock+off, buf)
			if err != nil {
				f.Close(h.ranks[r])
				return err
			}
			if n != hpcXfer || !bytes.Equal(buf, h.pat.at(h.content(step, r), off, hpcXfer)) {
				f.Close(h.ranks[r])
				return fmt.Errorf("rank %d of step %d: wrong bytes at %d", r, step, off)
			}
		}
		if err := f.Close(h.ranks[r]); err != nil {
			return err
		}
	}
	return nil
}

func (h *hpcCkpt) env() *env { return h.e }
