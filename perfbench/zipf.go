package main

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/storage"
)

// object-zipf: small-object GET/PUT traffic straight through the blob API,
// with Zipf-skewed keys over a key set larger than the store's placement
// cache.
const (
	zipfObjects = 160_000
	zipfMinSize = 512
	zipfMaxSize = 2 << 10
	zipfS       = 1.1
	// Every zipfPutEvery-th request of a client is a PUT, the rest GETs.
	zipfPutEvery = 10
	// zipfRoundReqs is how many requests each client issues between
	// CheckpointAll barriers: 16384 PUTs each. A checkpoint rewrites about
	// 600 MB of log and takes over a second, about as long as a round's
	// traffic on a quiet 2-CPU host.
	zipfRoundReqs = 16384 * zipfPutEvery
	// zipfSync is how many requests each client issues between joins of
	// the two clients' virtual clocks. The cluster books resources in the
	// order calls arrive, so when one client's thread is descheduled the
	// other runs far ahead in virtual time and the first then queues
	// behind those later bookings; joining the clocks this often bounds
	// that skew to a few milliseconds of virtual time.
	zipfSync = 64
)

type objectZipf struct {
	e      *env
	bs     storage.BlobStore
	pat    *pattern
	seed   uint64
	keys   []string
	sizes  []uint16
	rounds uint64
	// Every object has one writer: PUTs of object k come from client k%2.
	// A reader accepts any version in [done, started] sampled around its
	// read.
	started, done []atomic.Uint32
	clients       [clients]*zipfClient
	step          *lockstep
}

type zipfClient struct {
	ctx  *storage.Context
	rng  *rand.Rand
	zipf *rand.Zipf
	// Zipf rank r names object (a*r + b) mod zipfObjects; a and b are drawn
	// for each client and round, so the hot objects differ between clients
	// and move between rounds.
	a, b    uint64
	buf     []byte
	samples []sample
	bytes   int64
	written int64
	// A request's latency runs from the client's previous completion, so
	// waiting for the other client or for a checkpoint counts.
	prevWall time.Time
	prevVirt time.Duration
}

func newZipf(seed uint64) (workload, error) {
	z := &objectZipf{e: newEnv(seed), pat: newPattern(seed), seed: seed,
		keys: make([]string, zipfObjects), sizes: make([]uint16, zipfObjects),
		started: make([]atomic.Uint32, zipfObjects), done: make([]atomic.Uint32, zipfObjects)}
	z.bs = z.e.store
	r := rand.New(rand.NewPCG(seed, 0x7a697066))
	for k := range z.keys {
		z.keys[k] = fmt.Sprintf("obj/%06d", k)
		z.sizes[k] = uint16(zipfMinSize + r.IntN(zipfMaxSize-zipfMinSize+1))
	}
	setup := storage.NewContext()
	var errs [clients]error
	var wg sync.WaitGroup
	for c := range z.clients {
		ctx := setup.Fork()
		rng := rand.New(rand.NewPCG(seed, uint64(c)))
		z.clients[c] = &zipfClient{ctx: ctx, rng: rng, buf: make([]byte, zipfMaxSize),
			zipf: rand.NewZipf(rng, zipfS, 1, zipfObjects-1)}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := c; k < zipfObjects; k += clients {
				if err := z.bs.CreateBlob(ctx, z.keys[k]); err != nil {
					errs[c] = err
					return
				}
				if _, err := z.bs.WriteBlob(ctx, z.keys[k], 0, z.body(k, 0)); err != nil {
					errs[c] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("preload: %w", err)
		}
	}
	z.step = newLockstep(z.contexts())
	return z, nil
}

func (z *objectZipf) body(k int, v uint32) []byte {
	return z.pat.at(mix(z.seed, uint64(k), uint64(v)), 0, int(z.sizes[k]))
}

func (z *objectZipf) setTracer(tr *tracer) {
	z.e.tr = tr
	z.bs = z.e.store
	if tr != nil {
		z.bs, _ = z.e.traced(tr)
	}
}

func (z *objectZipf) contexts() []*storage.Context {
	out := make([]*storage.Context, clients)
	for c, cl := range z.clients {
		out[c] = cl.ctx
	}
	return out
}

func (z *objectZipf) startWindow(m *meter) {
	t := barrier(z.contexts()...)
	for _, cl := range z.clients {
		cl.prevWall, cl.prevVirt = m.start, t
	}
}

func (z *objectZipf) clock() time.Duration { return barrier(z.contexts()...) }

func (z *objectZipf) env() *env { return z.e }

// round lets each client run zipfRoundReqs requests in a closed loop, then
// checkpoints every server's log at a barrier.
func (z *objectZipf) round(m *meter) error {
	z.rounds++
	var wg sync.WaitGroup
	for c, cl := range z.clients {
		// An odd multiplier not divisible by 5 is coprime with 160000.
		cl.a = mix(z.seed, z.rounds, uint64(c))%(zipfObjects/10)*10 + 1
		cl.b = mix(z.seed, z.rounds, uint64(c), 1) % zipfObjects
		wg.Add(1)
		go func() {
			defer wg.Done()
			z.loop(m, c, cl)
		}()
	}
	wg.Wait()
	barrier(z.contexts()...)
	first := len(m.samples)
	for _, cl := range z.clients {
		m.samples = append(m.samples, cl.samples...)
		m.bytes += cl.bytes
		m.written += cl.written
		cl.samples, cl.bytes, cl.written = cl.samples[:0], 0, 0
	}
	slices.SortFunc(m.samples[first:], func(a, b sample) int { return cmp.Compare(a.done, b.done) })
	z.e.checkpointPause(m)
	return nil
}

func (z *objectZipf) loop(m *meter, c int, cl *zipfClient) {
	tr := z.e.tr
	for i := 0; i < zipfRoundReqs; i++ {
		if i%zipfSync == 0 {
			z.step.wait()
		}
		k := int((cl.a*cl.zipf.Uint64() + cl.b) % zipfObjects)
		root := tr.begin(cl.ctx, layerBench, callOp)
		var err error
		if i%zipfPutEvery == zipfPutEvery-1 {
			k = k&^1 | c // this client's object next to the drawn one
			err = z.put(cl, k)
		} else {
			err = z.get(cl, k)
		}
		tr.end(cl.ctx, root, err)
		now, t := time.Now(), cl.ctx.Clock.Now()
		cl.samples = append(cl.samples, sample{
			done: int64(now.Sub(m.start)),
			wall: int64(now.Sub(cl.prevWall)),
			virt: int64(t - cl.prevVirt),
			bad:  err != nil,
		})
		cl.prevWall, cl.prevVirt = now, t
	}
}

func (z *objectZipf) put(cl *zipfClient, k int) error {
	v := z.started[k].Add(1)
	body := z.body(k, v)
	n, err := z.bs.WriteBlob(cl.ctx, z.keys[k], 0, body)
	if err != nil {
		return err
	}
	if n != len(body) {
		return fmt.Errorf("PUT %s: short write %d", z.keys[k], n)
	}
	z.done[k].Store(v)
	cl.bytes += int64(n)
	cl.written += int64(n)
	return nil
}

func (z *objectZipf) get(cl *zipfClient, k int) error {
	lo := z.done[k].Load()
	size, err := z.bs.BlobSize(cl.ctx, z.keys[k])
	if err != nil {
		return err
	}
	if size != int64(z.sizes[k]) {
		return fmt.Errorf("GET %s: size %d, want %d", z.keys[k], size, z.sizes[k])
	}
	body := cl.buf[:size]
	n, err := z.bs.ReadBlob(cl.ctx, z.keys[k], 0, body)
	if err != nil {
		return err
	}
	hi := z.started[k].Load()
	cl.bytes += int64(n)
	if n == len(body) {
		for v := lo; v <= hi; v++ {
			if bytes.Equal(body, z.body(k, v)) {
				return nil
			}
		}
	}
	return fmt.Errorf("GET %s: wrong bytes (versions %d..%d)", z.keys[k], lo, hi)
}

// lockstep is a reusable barrier for the clients; the last to arrive
// joins their virtual clocks before releasing the others.
type lockstep struct {
	ctxs []*storage.Context
	mu   sync.Mutex
	cond *sync.Cond
	n    int
	gen  uint64
}

func newLockstep(ctxs []*storage.Context) *lockstep {
	l := &lockstep{ctxs: ctxs}
	l.cond = sync.NewCond(&l.mu)
	return l
}

func (l *lockstep) wait() {
	l.mu.Lock()
	defer l.mu.Unlock()
	gen := l.gen
	if l.n++; l.n < len(l.ctxs) {
		for gen == l.gen {
			l.cond.Wait()
		}
		return
	}
	barrier(l.ctxs...)
	l.n = 0
	l.gen++
	l.cond.Broadcast()
}
