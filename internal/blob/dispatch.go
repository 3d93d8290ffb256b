// dispatch.go implements the data plane's scatter-gather dispatcher: a
// bounded worker pool that executes per-chunk fan-out work (striped reads,
// replica writes, 2PC prepare/commit traffic, descriptor replication,
// rebalance copies) on real goroutines while keeping the simulated-clock
// semantics of the sequential implementation bit-for-bit.
//
// # Concurrency contract
//
// The difficulty is that virtual-time accounting must stay deterministic
// while real execution becomes parallel. sim.Resource reservations are
// order-sensitive (FIFO by arrival of the Use call), so letting worker
// goroutines charge the shared cluster resources directly would make joined
// clock times depend on the host scheduler. The dispatcher therefore splits
// every task into two halves:
//
//   - Real work — byte copies, chunk-table mutations, WAL appends — runs on
//     the worker goroutine immediately. All touched structures are
//     independently locked (chunk stripes, server descriptor maps, the
//     per-server WAL lanes, the placement cache), so this half is free to
//     interleave. A WAL append may briefly park as a group-commit follower
//     (wal.MultiLog), waiting on a leader that holds only lane-local locks
//     and never waits on the pool — the same bounded-wait class as a
//     mutex, so the no-deadlock argument is unchanged.
//     (enforced: blobvet/stripelock for the stripe half; blobvet/walappend
//     keeps appends on the accounted path)
//   - Cost charging — RPC, DiskRead, DiskWrite, DiskAppend, MetaOp,
//     LocalCompute — is recorded into the task's private ledger (a
//     per-worker shard of the cluster accounting) and folded into the
//     shared resources only at ctxFan.join, in task submission order.
//     (enforced: manual: fold-order equivalence is pinned by
//     TestFanoutDeterministicVirtualTime, not statically checkable)
//
// Folding at join replays exactly the charge sequence the sequential
// implementation would have issued: every top-level task's clock forks at
// the caller's time at join, charges replay in submission order against the
// live resources, and the caller advances to the slowest child. Nested fans
// (a chunk write's replica replication) are recorded as join/drop ops inside
// the parent task's ledger and replayed recursively, so AsyncReplication
// keeps its "reserve the resource time but do not wait" semantics.
//
// Ownership rules:
//
//   - A forked child clock (ledger) is owned by exactly one task between
//     spawn and join; nothing else may observe it.
//     (enforced: manual: ownership aliasing is not statically checkable;
//     the race detector covers it under -race)
//   - Between creating a fan and joining it the caller must not charge its
//     own clock; all fork times are taken at join.
//     (enforced: manual: pinned by the fan-out virtual-time equivalence
//     tests)
//   - ctxFan.join is the only place ledgers touch shared resources, so
//     costs fold deterministically no matter where tasks physically ran
//     (worker goroutine, saturated-pool inline fallback, or
//     Config.InlineFanout sequential mode — all three are virtual-time
//     identical, which TestFanoutDeterministicVirtualTime pins).
//     (enforced: manual: pinned by TestFanoutDeterministicVirtualTime)
//   - A task must never block on a lock that can be held across a pool
//     wait (ctxFan.join, parallelDo). Concretely: the per-blob descriptor
//     latch is held across writers' joins, so tasks may not acquire it —
//     they collect descriptor pointers and let the caller read under the
//     latch after join (see Scan). The short-hold locks — chunk stripes,
//     server maps, the WAL, the placement cache — are fine; their holders
//     never wait on the pool.
//     (enforced: blobvet/workerlatch — latch takes and pool waits are
//     flagged in the whole call graph reachable from task bodies)
//
// # Recovery and checkpoint stages
//
// The crash-recovery pipeline (recoverfeed.go) and the per-lane
// checkpoint (recovery.go) ride this same pool, under the same rules,
// with these stage-specific obligations:
//
//   - Lane-decode jobs are one-shot and non-blocking: each decodes a
//     bounded batch from a private medium snapshot and signals a
//     capacity-1 channel that is empty by protocol (one job in flight per
//     lane). Only the merge — the recovery caller, never a worker — waits
//     on those channels, and it must therefore hold no latch-class lock
//     while merging: Recover builds into local maps and takes sv.mu only
//     to install them (and, as before, never holds sv.mu across the
//     chunk-scatter parallelDo).
//     (enforced: blobvet/workerlatch — laneFeed.run is a task root and
//     laneFeed.Next is a pool wait)
//   - A checkpoint rewrites one server at a time in four stages. The
//     caller buckets the server's descriptors by lane under sv.mu. One
//     pool job per lane then snapshots that lane's chunks and debts,
//     holding one feeding stripe's read lock at a time, and sorts the
//     lane's records. The caller resets the lanes with the key ranges the
//     record counts fix, and one pool job per lane streams the lane to its
//     own private Log/Buffer in AppendNV batches through the store's
//     per-lane staging. The jobs take no latch-class lock and never wait
//     on the pool. Across both pool waits the caller holds only the
//     store's checkpoint mutex, which no task takes.
//     (enforced: blobvet/workerlatch for the latch and wait half;
//     blobvet/stripelock for one stripe lock at a time; blobvet/walappend
//     keeps checkpointLane the only direct lane writer)
//   - The compacted log is byte-identical across runs: each job sorts
//     the records its map walks collected before any of them is appended,
//     and each lane's order keys come from its reserved range rather than
//     from whichever job reaches the shared counter first.
//     (enforced: blobvet/virtualtime flags a map walk reaching an append
//     unsorted; the key ranges are pinned by TestCheckpointDeterministic)
//   - parallelDo must not be called from a worker, so multi-stage sweeps
//     fan out FLAT: CheckpointAll runs every server's pool stages from
//     the caller instead of nesting a per-server parallelDo inside a pool
//     task, which on a saturated pool would deadlock (every worker
//     blocked in a nested wait, every nested job stuck in the queue).
//     (enforced: blobvet/workerlatch — parallelDo is a flagged pool wait
//     inside the task-reachable graph)
//
// # Repair and resync stages
//
// Debt-driven repair (repair.go) fans per-chunk repairChunk tasks through
// this pool round by round, and rejoin resync (resyncNode) runs inline on
// the Recover/SetDown caller; both obey additional lock rules:
//
//   - Repair tasks touch only short-hold locks: a source chunk is copied
//     out under its stripe RLock, the install takes the TARGET's stripe
//     lock, and the two are never held together (the copy is a snapshot;
//     the version guard at install, not lock coverage, is what keeps a
//     racing writer's newer data from being clobbered). Debt clears are
//     version-guarded under the holder's stripe lock the same way.
//     (enforced: blobvet/stripelock — holding two chunk-stripe locks at
//     once is flagged, including through callbacks run under a stripe)
//   - Repair never acquires the per-blob descriptor latch. That is what
//     makes the degraded-write epilogue sound: writeLocked invokes
//     repairNode WHILE holding the written blob's latch (the writer is a
//     caller, allowed to hold it across its own join), and a repair task
//     that took latches would deadlock right there.
//     (enforced: blobvet/workerlatch — repairChunk runs in the
//     task-reachable graph, where latch takes are flagged)
//   - repairDrain performs a fan join per round, so it is caller-only —
//     never callable from inside a pool task (the nested-wait rule above).
//     Its rounds require progress (a chunk actually installed or a bit
//     actually cleared) to continue, so an unserviceable target (sole
//     fresh source down) terminates the loop instead of spinning it.
//     (enforced: blobvet/workerlatch — repairDrain is itself a flagged
//     pool wait)
//   - Repair and rebalance coordinate through the ring epoch: each round
//     snapshots it and every task re-checks before mutating, bailing out
//     when membership changed underneath.
//     (enforced: manual: epoch re-check is a liveness protocol, pinned by
//     the rebalance/repair chaos tests)
//
// # Migration stages
//
// Membership changes (rebalance.go) run the reconcile sweep's per-chunk
// migrateChunk tasks through this pool, one 2PC batch in flight at a time,
// under four additional rules:
//
//   - The descriptor handover sweep is caller-only and runs BEFORE any
//     chunk batch: it installs the canonical descriptor pointer on gained
//     owners under that blob's latch (held in read mode, re-resolving under
//     the latch to exclude a racing DeleteBlob). Chunk-batch tasks
//     therefore never need — and must never take — a descriptor latch;
//     like repair tasks they touch only stripe locks, server maps, and WAL
//     lanes. revalidateBatch, which does read the latch to re-check blob
//     extents, runs on the batch CALLER after join, never in a task.
//     (enforced: blobvet/workerlatch — migrateChunk is in the
//     task-reachable graph, where latch takes are flagged)
//   - Durable-before-visible, per batch: tasks append buffered copy/delete
//     records (RecMigrateBatch) and defer every in-memory mutation to the
//     batch caller, which materializes installs and deletes only AFTER the
//     commit markers land on all logged participants. Installs are
//     version-guarded (setChunkIfNewer), mirroring the replay-side guard,
//     so a concurrent foreground write that outran the copy wins on both
//     sides of a crash.
//     (enforced: manual: commit-before-materialize ordering is pinned by
//     the migration crash sweep's batch-boundary and torn-tail captures)
//   - Migration appends ride the accounted append path: intents and batch
//     markers go to the migration lane, buffered chunk records to the
//     chunk's natural lane, all through walAppendLane so the server-scoped
//     order keys keep merged replay in true append order.
//     (enforced: blobvet/walappend — walAppendLane and checkpointLane are
//     the only direct lane writers)
//   - Sweep iteration is determinism-critical: the descriptor sweep and the
//     migration plan sort their key/chunk sets before walking them, so the
//     record order every log receives — and therefore the roll-forward
//     replay — is independent of Go map iteration order.
//     (enforced: blobvet/virtualtime — map-order-dependent effects in the
//     accounted call graph are flagged)
//   - The ring mutates only under the exclusive member gate, and every
//     placement-resolving foreground op holds the gate shared end-to-end
//     (resolve through last replica ack), so an epoch flip never splits one
//     op across two placements. The gate is held for the flip instant only
//     — never across the sweep — so foreground traffic runs throughout.
//     (enforced: manual: gate coverage is a protocol property, pinned by
//     the live-traffic migration tests and the chaos battery's membership
//     actor)
//
// The pool is package-global, lazily started, and bounded by GOMAXPROCS
// (capped at maxDispatchWorkers). Workers never block: a task that fans out
// further (replica writes) records the sub-fan and returns, and a spawn
// that finds the queue full runs the task inline on the submitter. Both
// properties together make nested fan-outs deadlock-free by construction.
package blob

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/wal"
)

// maxDispatchWorkers caps the worker pool so a large host does not spawn
// more goroutines than the simulated cluster could meaningfully exercise.
const maxDispatchWorkers = 16

// dispatchQueueLen is the pool's submission queue depth. Overflow is not an
// error: spawn falls back to inline execution on the submitter.
const dispatchQueueLen = 256

// runnable is what the worker pool executes: fan tasks and the clock-free
// bulk jobs of parallelDo.
type runnable interface{ run() }

var (
	dispatchOnce    sync.Once
	dispatchCh      chan runnable
	dispatchWorkers int
)

// dispatchPool lazily starts the shared worker pool and returns its queue.
func dispatchPool() chan runnable {
	dispatchOnce.Do(func() {
		n := runtime.GOMAXPROCS(0)
		if n < 2 {
			n = 2
		}
		if n > maxDispatchWorkers {
			n = maxDispatchWorkers
		}
		dispatchCh = make(chan runnable, dispatchQueueLen)
		dispatchWorkers = n
		for i := 0; i < n; i++ {
			go func() {
				for t := range dispatchCh {
					t.run()
				}
			}()
		}
	})
	return dispatchCh
}

// parallelDo runs fn(0..n-1) across the worker pool and waits for all of
// them. It is for clock-free bulk state manipulation (recovery chunk
// reinsertion, checkpoint stages); fan tasks with cost accounting go
// through ctxFan. Must not be called from a worker (it blocks).
//
// The indices are claimed, not queued one by one: one shared job is
// offered to at most one worker per pool goroutine, and the caller claims
// indices too, so a call costs the same few allocations whatever n is, and
// a full queue or a busy pool only means the caller does more of the work.
func parallelDo(n int, fn func(int)) {
	if n <= 0 {
		return
	}
	j := &funcJob{n: int64(n), fn: fn}
	j.wg.Add(n)
	ch := dispatchPool()
offer:
	for k := min(n-1, dispatchWorkers); k > 0; k-- {
		select {
		case ch <- j:
		default:
			break offer // queue full: the caller claims what no worker does
		}
	}
	j.run()
	j.wg.Wait()
}

// funcJob is one parallelDo call: every runner claims indices until none
// are left. wg counts unfinished indices, not runners, so the caller
// returns as soon as the last index is done even if a queued runner has
// not started yet (it will find nothing to claim).
type funcJob struct {
	next atomic.Int64
	n    int64
	fn   func(int)
	wg   sync.WaitGroup
}

func (j *funcJob) run() {
	for i := j.next.Add(1) - 1; i < j.n; i = j.next.Add(1) - 1 {
		j.fn(int(i))
		j.wg.Done()
	}
}

// ---- cost ledgers ----

// opKind tags one recorded resource charge.
type opKind uint8

const (
	opRPC opKind = iota
	opDiskRead
	opDiskWrite
	opDiskAppend
	opMetaOp
	opLocalCompute
	// opJoinSubs / opDropSubs replay a nested fan: the linked sub-tasks
	// fork at the replay clock's current time; join advances to the
	// slowest sub, drop reserves the resource time without advancing.
	opJoinSubs
	opDropSubs
)

// ledgerOp is one deferred charge. a and b carry the integer operands of
// the corresponding cluster call (byte counts, metadata-op counts).
type ledgerOp struct {
	kind opKind
	node cluster.NodeID
	a, b int
	d    time.Duration
	sub  *fanTask // head of the sibling-linked nested fan (opJoinSubs/opDropSubs)
}

// ledger accumulates a task's charges. The ops slice is recycled with its
// task, so steady-state recording allocates nothing.
type ledger struct {
	ops []ledgerOp
}

// charge routes cluster cost accounting: direct mode (clk set) applies the
// charge to the shared resources immediately — the caller's own sequential
// work — while deferred mode (led set) records it into a task ledger for
// fold-at-join. Exactly one of clk/led is non-nil.
type charge struct {
	s   *Store
	clk *sim.Clock
	led *ledger
}

// directCharge returns a charger applying costs immediately to ctx's clock.
func (s *Store) directCharge(ctx *storage.Context) charge {
	return charge{s: s, clk: ctx.Clock}
}

func (cg *charge) rpc(dst cluster.NodeID, reqBytes, respBytes int, service time.Duration) {
	if cg.led != nil {
		cg.led.ops = append(cg.led.ops, ledgerOp{kind: opRPC, node: dst, a: reqBytes, b: respBytes, d: service})
		return
	}
	cg.s.cluster.RPC(cg.clk, dst, reqBytes, respBytes, service)
}

func (cg *charge) diskRead(dst cluster.NodeID, n int) {
	if cg.led != nil {
		cg.led.ops = append(cg.led.ops, ledgerOp{kind: opDiskRead, node: dst, a: n})
		return
	}
	cg.s.cluster.DiskRead(cg.clk, dst, n)
}

func (cg *charge) diskWrite(dst cluster.NodeID, n int) {
	if cg.led != nil {
		cg.led.ops = append(cg.led.ops, ledgerOp{kind: opDiskWrite, node: dst, a: n})
		return
	}
	cg.s.cluster.DiskWrite(cg.clk, dst, n)
}

func (cg *charge) diskAppend(dst cluster.NodeID, n int) {
	if cg.led != nil {
		cg.led.ops = append(cg.led.ops, ledgerOp{kind: opDiskAppend, node: dst, a: n})
		return
	}
	cg.s.cluster.DiskAppend(cg.clk, dst, n)
}

func (cg *charge) metaOp(dst cluster.NodeID, k int) {
	if cg.led != nil {
		cg.led.ops = append(cg.led.ops, ledgerOp{kind: opMetaOp, node: dst, a: k})
		return
	}
	cg.s.cluster.MetaOp(cg.clk, dst, k)
}

func (cg *charge) localCompute(d time.Duration) {
	if cg.led != nil {
		cg.led.ops = append(cg.led.ops, ledgerOp{kind: opLocalCompute, d: d})
		return
	}
	cg.s.cluster.LocalCompute(cg.clk, d)
}

// ---- fan tasks ----

// taskKind selects a fan task's body. Hot-path work uses typed kinds so the
// read and write paths stay closure-free (zero steady-state allocations);
// cold paths (scan, migration) use taskFunc closures.
type taskKind uint8

const (
	taskFunc taskKind = iota
	taskReadChunk
	taskWriteChunk
	taskReplicaWrite
	taskApplyChunk
	taskPrepare
	taskWalFlush
	taskDescReplicate
	taskChunkDelete
	taskChunkTrim
)

// fanTask is one unit of scatter-gather work: operands, a private cost
// ledger, and the sibling link that keeps submission order for the
// deterministic fold at join. Tasks are pooled; ledger capacity survives
// recycling.
type fanTask struct {
	next *fanTask
	fan  *ctxFan // root fan: owns the WaitGroup and the inline flag
	s    *Store
	cg   charge
	led  ledger
	kind taskKind
	err  error

	// operands (union across kinds)
	pl     chunkPlace
	plp    *chunkPlace // taskWriteChunk: write-back slot for the computed excl mask
	within int64
	size   int64
	mask   uint64 // taskReplicaWrite: debt mask owed by the write's down owners
	data   []byte
	sv     *server
	rec    wal.RecordType
	key    string
	desc   *descriptor // taskDescReplicate: the primary's object, to skip pointer-shared stores
	lane   int         // taskWalFlush: the target log lane of the spec batch
	meta   bool        // taskWalFlush: charge one round trip per record; taskDescReplicate: upsert
	specs  []wal.AppendVSpec
	fn     func(cg *charge) error
}

var taskPool = sync.Pool{New: func() any { return new(fanTask) }}

func (t *fanTask) run() {
	defer t.fan.wg.Done()
	s := t.s
	cg := &t.cg
	switch t.kind {
	case taskFunc:
		t.err = t.fn(cg)
	case taskReadChunk:
		t.err = s.readChunk(cg, t.pl.id, t.within, t.data)
	case taskWriteChunk:
		t.err = s.writeChunk(t, t.pl, t.within, t.data, t.rec)
	case taskReplicaWrite:
		t.err = s.replicaWrite(cg, t.sv, t.pl, t.within, t.data, t.rec, t.mask)
	case taskApplyChunk:
		// Commit-phase memory materialization of a prepared multi-chunk
		// write: every replica the data phase reached, in parallel across
		// chunks. Pure memory work — no resource charge; the 2PC round
		// trips are accounted by the prepare and commit log phases. An
		// owner that flapped down after the data phase is NOT skipped:
		// its retained memory stays consistent with the prepare and
		// commit markers its log received. An owner the data phase
		// excluded (t.pl.excl) IS skipped: it holds no prepare, the debt
		// recorded below covers the gap, and a partial apply here would
		// raise its chunk version past bytes it never received.
		//
		// The exclusion debt is recorded HERE, after each included owner's
		// apply, not in the prepare phase: clearDebt's version guard reads
		// "the holder has seen nothing newer than what the repair
		// installed", which is only sound when every holder applies a
		// write BEFORE recording its debt. A prepare-time record sits in
		// the window where the holder's applied version still predates the
		// transaction, so a racing repair of the excluded owner would pass
		// the guard and erase the debt the commit is about to depend on.
		// (Aborted transactions also stop leaving spurious debt behind.)
		for _, o := range t.pl.owners {
			if t.pl.excl&(1<<uint(o)) != 0 {
				continue
			}
			applyChunk(s.servers[o], t.pl.h, t.pl.id, t.within, t.data, t.pl.ver)
			if t.pl.excl != 0 {
				s.recordDebt(cg, s.servers[o], t.pl.h, t.pl.id, t.pl.excl)
			}
		}
	case taskPrepare:
		// One prepare round trip on the participant chunk's primary — or,
		// with the primary down, on the first live owner (the same
		// promotion the degraded data phase applies).
		sv := t.sv
		if sv.isDown() {
			sv = nil
			for _, o := range t.pl.owners {
				if cand := s.servers[o]; !cand.isDown() {
					sv = cand
					break
				}
			}
		}
		if sv == nil {
			t.err = fmt.Errorf("chunk %d of %q: all replicas down: %w", t.pl.id.idx, t.pl.id.key, storage.ErrUnavailable)
			return
		}
		if err := s.faultCheck(cg, sv.node, cluster.FaultMetaOp); err != nil {
			t.err = fmt.Errorf("chunk %d of %q: prepare: %w", t.pl.id.idx, t.pl.id.key, err)
			return
		}
		cg.metaOp(sv.node, 1)
	case taskWalFlush:
		if t.meta {
			cg.metaOp(t.sv.node, len(t.specs))
		}
		s.walAppendBatch(cg, t.sv, t.lane, t.specs)
	case taskDescReplicate:
		cg.metaOp(t.sv.node, 1)
		t.sv.mu.Lock()
		d, ok := t.sv.blobs[t.key]
		if !ok && t.meta {
			d = &descriptor{}
			t.sv.blobs[t.key] = d
			ok = true
		}
		// Skip the store when the replica maps the key to the primary's own
		// descriptor object (pointer-shared by the migration handover): the
		// caller already set the size under the latch, and two replica
		// tasks storing the shared field would race.
		if ok && d != t.desc {
			d.size = t.size
		}
		t.sv.mu.Unlock()
		s.walAppendMeta(cg, t.sv, t.rec, t.key, t.size)
	case taskChunkDelete:
		t.sv.deleteChunk(t.pl.h, t.pl.id)
	case taskChunkTrim:
		t.sv.trimChunk(t.pl.h, t.pl.id, t.size)
	}
}

// replay folds the task's recorded charges into the shared cluster
// resources using clk as the task's virtual clock. Called only from
// ctxFan.join, in submission order.
func (t *fanTask) replay(clk *sim.Clock) {
	s := t.s
	for i := range t.led.ops {
		op := &t.led.ops[i]
		switch op.kind {
		case opRPC:
			s.cluster.RPC(clk, op.node, op.a, op.b, op.d)
		case opDiskRead:
			s.cluster.DiskRead(clk, op.node, op.a)
		case opDiskWrite:
			s.cluster.DiskWrite(clk, op.node, op.a)
		case opDiskAppend:
			s.cluster.DiskAppend(clk, op.node, op.a)
		case opMetaOp:
			s.cluster.MetaOp(clk, op.node, op.a)
		case opLocalCompute:
			s.cluster.LocalCompute(clk, op.d)
		case opJoinSubs, opDropSubs:
			forkAt := clk.Now()
			for sub := op.sub; sub != nil; sub = sub.next {
				sc := clockPool.Get().(*sim.Clock)
				sc.Reset(forkAt)
				sub.replay(sc)
				if op.kind == opJoinSubs {
					clk.Join(sc)
				}
				clockPool.Put(sc)
			}
		}
	}
}

// firstError returns the task's own error or the first error among its
// nested sub-tasks, in recorded order. Dropped (async) subs report too: a
// down replica fails the write even when the client does not wait for it.
func (t *fanTask) firstError() error {
	if t.err != nil {
		return t.err
	}
	for i := range t.led.ops {
		op := &t.led.ops[i]
		if op.kind == opJoinSubs || op.kind == opDropSubs {
			for sub := op.sub; sub != nil; sub = sub.next {
				if err := sub.firstError(); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// release recycles the task and, recursively, any nested fan it recorded.
func (t *fanTask) release() {
	for i := range t.led.ops {
		op := &t.led.ops[i]
		if op.kind == opJoinSubs || op.kind == opDropSubs {
			for sub := op.sub; sub != nil; {
				next := sub.next
				sub.release()
				sub = next
			}
			op.sub = nil
		}
	}
	t.led.ops = t.led.ops[:0]
	t.next = nil
	t.fan = nil
	t.s = nil
	t.cg = charge{}
	t.err = nil
	t.pl = chunkPlace{}
	t.within = 0
	t.size = 0
	t.mask = 0
	t.plp = nil
	t.data = nil
	t.sv = nil
	t.rec = 0
	t.key = ""
	t.desc = nil
	t.lane = 0
	t.meta = false
	t.specs = nil
	t.fn = nil
	taskPool.Put(t)
}

// clockPool recycles the scratch clocks used to replay task ledgers.
var clockPool = sync.Pool{New: func() any { return sim.NewClock() }}

// ---- fans ----

// ctxFan is a scatter-gather in flight: the submission-ordered task list,
// the WaitGroup covering every task in the tree (nested fans included), and
// the execution mode. It amortizes through a pool, so a steady-state
// fan-out allocates nothing.
type ctxFan struct {
	s      *Store
	inline bool
	wg     sync.WaitGroup
	head   *fanTask
	tail   *fanTask
}

var fanPool = sync.Pool{New: func() any { return new(ctxFan) }}

// newFan starts a scatter-gather rooted at this store.
func (s *Store) newFan() *ctxFan {
	f := fanPool.Get().(*ctxFan)
	f.s = s
	f.inline = s.cfg.InlineFanout
	return f
}

// task takes a pooled task bound to this fan.
func (f *ctxFan) task(kind taskKind) *fanTask {
	t := taskPool.Get().(*fanTask)
	t.kind = kind
	t.s = f.s
	t.fan = f
	t.cg = charge{s: f.s, led: &t.led}
	return t
}

// dispatch hands t to the pool, or runs it inline when the fan is in
// sequential mode or the queue is full. Workers never block, so inline
// fallback (not backpressure) is what bounds the queue.
func (f *ctxFan) dispatch(t *fanTask) {
	f.wg.Add(1)
	if f.inline {
		t.run()
		return
	}
	select {
	case dispatchPool() <- t:
	default:
		t.run()
	}
}

// spawn submits a top-level task.
func (f *ctxFan) spawn(t *fanTask) {
	if f.head == nil {
		f.head = t
	} else {
		f.tail.next = t
	}
	f.tail = t
	f.dispatch(t)
}

// join waits for every task in the fan (nested ones included), folds the
// recorded charges into the shared cluster resources in submission order,
// and advances ctx's clock to the slowest child — the synchronization point
// of the simulated parallel fan-out. It returns the index of the first
// failed top-level task and the first error in submission order (-1, nil
// when everything succeeded), and recycles the fan.
func (f *ctxFan) join(ctx *storage.Context) (int, error) {
	f.wg.Wait()
	forkAt := ctx.Clock.Now()
	errIdx, firstErr := -1, error(nil)
	i := 0
	for t := f.head; t != nil; i++ {
		sc := clockPool.Get().(*sim.Clock)
		sc.Reset(forkAt)
		t.replay(sc)
		ctx.Clock.Join(sc)
		clockPool.Put(sc)
		if firstErr == nil {
			if err := t.firstError(); err != nil {
				errIdx, firstErr = i, err
			}
		}
		next := t.next
		t.release()
		t = next
	}
	f.head, f.tail = nil, nil
	f.s = nil
	fanPool.Put(f)
	return errIdx, firstErr
}

// subFan collects the nested fan-out of a task already running (a chunk
// write's replica replication). Its tasks share the root fan's WaitGroup
// and mode, but their charges are recorded into the parent task's ledger —
// joinSubs/dropSubs — instead of touching shared resources, so a worker
// never blocks and never charges out of order.
type subFan struct {
	root *ctxFan
	head *fanTask
	tail *fanTask
}

func (t *fanTask) subFan() subFan { return subFan{root: t.fan} }

func (sf *subFan) task(kind taskKind) *fanTask { return sf.root.task(kind) }

func (sf *subFan) spawn(t *fanTask) {
	if sf.head == nil {
		sf.head = t
	} else {
		sf.tail.next = t
	}
	sf.tail = t
	sf.root.dispatch(t)
}

// joinSubs records a fork/join of the nested fan at the parent task's
// current virtual time: at replay the subs fork together and the parent
// advances to the slowest, like ctxFan.join.
func (t *fanTask) joinSubs(sf *subFan) {
	if sf.head == nil {
		return
	}
	t.led.ops = append(t.led.ops, ledgerOp{kind: opJoinSubs, sub: sf.head})
}

// dropSubs records a fork without a join — the async-replication
// acknowledgement path. The subs' resource time is still reserved at
// replay, but the parent clock does not wait on them.
func (t *fanTask) dropSubs(sf *subFan) {
	if sf.head == nil {
		return
	}
	t.led.ops = append(t.led.ops, ledgerOp{kind: opDropSubs, sub: sf.head})
}

// forEachSpan invokes fn for every chunk-aligned span of the byte range
// [off, off+n): the chunk index, the intra-chunk offset, and the span's
// start/length relative to the range. It is the single source of the
// stride arithmetic shared by reads, write phases, and the
// partial-completion accounting, which must all agree span-for-span.
func forEachSpan(off, n, chunkSize int64, fn func(idx, within, start, take int64)) {
	for done := int64(0); done < n; {
		idx := (off + done) / chunkSize
		within := (off + done) % chunkSize
		take := chunkSize - within
		if take > n-done {
			take = n - done
		}
		fn(idx, within, done, take)
		done += take
	}
}

// fanPrefixBytes reports how many bytes the first k chunk-striped tasks of
// an operation starting at off for want bytes covered — the deterministic
// partial-completion count reported when a read fan fails mid-stripe.
func fanPrefixBytes(off, want, chunkSize int64, k int) int64 {
	var n int64
	i := 0
	forEachSpan(off, want, chunkSize, func(_, _, start, take int64) {
		if i < k {
			n = start + take
		}
		i++
	})
	return n
}
