package blob

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/cluster"
	"repro/internal/storage"
	"repro/internal/wal"
)

// LogRecords replays a server's write-ahead log — all lanes, merged into
// logical append order by the records' order keys — and returns its
// records. Tests use this to assert that every namespace mutation was made
// durable before being acknowledged.
func (s *Store) LogRecords(node cluster.NodeID) ([]wal.Record, error) {
	sv := s.servers[int(node)]
	var recs []wal.Record
	err := sv.wal.ReplayMerged(func(rec wal.Record) error {
		p := make([]byte, len(rec.Payload))
		copy(p, rec.Payload)
		rec.Payload = p
		recs = append(recs, rec)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("blob: replay node %d: %w", node, err)
	}
	return recs, nil
}

// Crash simulates a server losing its volatile state: the in-memory
// descriptor and chunk tables are wiped (the WAL, being durable, survives)
// and the server is marked down.
func (s *Store) Crash(node cluster.NodeID) {
	sv := s.servers[int(node)]
	sv.mu.Lock()
	sv.blobs = make(map[string]*descriptor)
	sv.down = true
	sv.wiped = true
	sv.mu.Unlock()
	sv.resetChunks()
	tracef("crash node=%d", node)
}

// prepWrite is the buffered 2PC chunk write awaiting its commit record
// during replay. At most one is pending per chunk: the per-blob latch
// serializes transactions and each transaction prepares a chunk exactly
// once, so a newer prepare supersedes any dangling one a torn transaction
// left behind — which is also what keeps a later commit from resurrecting
// stale prepared bytes.
type prepWrite struct {
	within int64
	ver    uint64
	data   []byte
}

// applyRecovered merges one chunk write into the replayed chunk table and
// installs the write's persisted version.
func applyRecovered(chunks map[chunkID][]byte, vers map[chunkID]uint64, id chunkID, within int64, ver uint64, data []byte) {
	chunk := chunks[id]
	need := within + int64(len(data))
	if int64(len(chunk)) < need {
		grown := make([]byte, need)
		copy(grown, chunk)
		chunk = grown
	}
	copy(chunk[within:], data)
	chunks[id] = chunk
	if ver > vers[id] {
		vers[id] = ver
	}
}

// Recover rebuilds a server's volatile state by replaying its write-ahead
// log, then marks the server up again. Every mutation path appends a
// self-describing record (codec.go) whose payload shape is determined by
// its type — meta records carry (key, size), chunk records carry
// (chunkID, within, data) — so replay reconstructs descriptors and chunk
// bytes exactly without parsing string keys.
//
// Multi-chunk (2PC) writes replay all-or-nothing: RecPrepWrite records are
// buffered per chunk and materialize only when that chunk's RecChunkCommit
// arrives; a RecAbort discards them, and prepares still pending when the
// log ends (a crash mid-transaction) are dropped.
//
// The log is a sharded lane log (wal.MultiLog): replay merges the lanes by
// the server-scoped order key stamped into every record, yielding exactly
// the logical append order — and exactly an order-key PREFIX of it. A torn
// lane tail creates a key gap, and every record logically after the gap,
// on any lane, is discarded with it; since the key order respects the
// order mutations were issued, the recovered state is always a state the
// live server actually passed through (a delete can never survive the
// chunk drops that preceded it, a commit never its prepares).
//
// Recovery also repairs the media: wal.MultiLog.RecoverMerged truncates
// each lane past its last record inside the merged prefix — torn garbage
// AND clean-but-after-gap records — and re-bases the order-key counter, so
// appends accepted after recovery extend the prefix instead of hiding
// behind bytes a later replay would trip over or stop before.
//
// By default the lanes are DECODED in parallel: one prefetching feed per
// lane rides the worker pool (recoverfeed.go) while this goroutine runs
// the order-key merge over the pre-decoded heads. The merge engine, the
// prefix contract, and the media repair are the same code either way —
// Config.SerialRecovery selects the single-threaded decode as the oracle
// the equivalence tests pin the pipeline against, byte for byte.
func (s *Store) Recover(node cluster.NodeID) error {
	sv := s.servers[int(node)]
	// The replay below builds into local maps and — on the parallel path —
	// waits on pool-executed decode jobs, so no latch-class lock may be
	// held across it (dispatch.go contract); recovery's quiescence
	// requirement is what makes the lock-free read of the lane media safe.
	// sv.mu is taken only to install the rebuilt tables.
	blobs := make(map[string]*descriptor)
	chunks := make(map[chunkID][]byte)
	vers := make(map[chunkID]uint64)
	debt := make(map[chunkID]uint64)
	var pending map[chunkID]prepWrite
	// Migration replay state: buffered batch records (copies AND deletes)
	// materialize only at their commit marker, so a batch torn anywhere
	// before it replays as fully absent; the open intent (a Begin without a
	// matching End) is published after replay so Recover can roll the
	// migration forward.
	var migPend map[chunkID]prepWrite
	var migDel map[chunkID]bool
	var openIntent *migrationIntent
	var maxMigSeq uint64
	replay := func(fn func(wal.Record) error) error {
		if s.cfg.SerialRecovery {
			return sv.wal.RecoverMerged(fn)
		}
		return sv.wal.RecoverMergedFeeds(newRecoveryFeeds(sv.wal), fn)
	}
	err := replay(func(rec wal.Record) error {
		switch rec.Type {
		case wal.RecCreate, wal.RecMeta:
			key, size, err := decMeta(rec.Payload)
			if err != nil {
				return err
			}
			d, ok := blobs[key]
			if !ok {
				d = &descriptor{}
				blobs[key] = d
			}
			d.size = size
			return nil
		case wal.RecWrite:
			id, within, ver, data, err := decChunkPayload(rec.Payload)
			if err != nil {
				return err
			}
			applyRecovered(chunks, vers, id, within, ver, data)
			return nil
		case wal.RecPrepWrite:
			id, within, ver, data, err := decChunkPayload(rec.Payload)
			if err != nil {
				return err
			}
			if pending == nil {
				pending = make(map[chunkID]prepWrite)
			}
			// rec.Payload is a fresh per-record buffer; retaining data is
			// safe. Overwrite, never accumulate: only the latest prepare
			// belongs to the transaction whose commit may follow.
			pending[id] = prepWrite{within: within, ver: ver, data: data}
			return nil
		case wal.RecChunkCommit:
			id, _, _, _, err := decChunkPayload(rec.Payload)
			if err != nil {
				return err
			}
			if p, ok := pending[id]; ok {
				applyRecovered(chunks, vers, id, p.within, p.ver, p.data)
				delete(pending, id)
			}
			return nil
		case wal.RecAbort:
			id, _, _, _, err := decChunkPayload(rec.Payload)
			if err != nil {
				return err
			}
			delete(pending, id)
			return nil
		case wal.RecRepairNeeded:
			// Overwrite semantics: the record carries the chunk's full debt
			// mask (in the version slot) as of its append, so the last
			// record in logical order wins — a zero mask clears the entry.
			id, _, mask, _, err := decChunkPayload(rec.Payload)
			if err != nil {
				return err
			}
			if mask == 0 {
				delete(debt, id)
			} else {
				debt[id] = mask
			}
			return nil
		case wal.RecDelete:
			key, _, err := decMeta(rec.Payload)
			if err != nil {
				return err
			}
			delete(blobs, key)
			return nil
		case wal.RecChunkDelete:
			id, _, _, _, err := decChunkPayload(rec.Payload)
			if err != nil {
				return err
			}
			delete(chunks, id)
			delete(vers, id)
			delete(debt, id)
			return nil
		case wal.RecTruncate:
			key, size, err := decMeta(rec.Payload)
			if err != nil {
				return err
			}
			if d, ok := blobs[key]; ok {
				d.size = size
			}
			return nil
		case wal.RecChunkTruncate:
			id, keep, _, _, err := decChunkPayload(rec.Payload)
			if err != nil {
				return err
			}
			if c, ok := chunks[id]; ok && int64(len(c)) > keep {
				chunks[id] = c[:keep]
			}
			return nil
		case wal.RecCommit:
			return nil // transaction-level marker; state is in the chunk records
		case wal.RecMigrateBegin:
			seq, op, mnode, err := decMigrateIntent(rec.Payload)
			if err != nil {
				return err
			}
			openIntent = &migrationIntent{seq: seq, op: op, node: mnode}
			if seq > maxMigSeq {
				maxMigSeq = seq
			}
			migPend, migDel = nil, nil
			return nil
		case wal.RecMigrateEnd:
			seq, _, _, err := decMigrateIntent(rec.Payload)
			if err != nil {
				return err
			}
			if seq > maxMigSeq {
				maxMigSeq = seq
			}
			if openIntent != nil && openIntent.seq == seq {
				openIntent = nil
			}
			migPend, migDel = nil, nil
			return nil
		case wal.RecMigrateBatch:
			if len(rec.Payload) < 1 {
				return fmt.Errorf("blob: migrate batch record empty")
			}
			switch phase := rec.Payload[0]; phase {
			case migPhasePrepare:
				// A fresh batch opens: any residue a torn earlier batch left
				// buffered is dead (its commit can no longer follow).
				migPend, migDel = nil, nil
			case migPhaseChunk:
				id, _, ver, data, err := decChunkPayload(rec.Payload[1:])
				if err != nil {
					return err
				}
				if migPend == nil {
					migPend = make(map[chunkID]prepWrite)
				}
				migPend[id] = prepWrite{ver: ver, data: data}
			case migPhaseDelete:
				id, _, _, _, err := decChunkPayload(rec.Payload[1:])
				if err != nil {
					return err
				}
				if migDel == nil {
					migDel = make(map[chunkID]bool)
				}
				migDel[id] = true
			case migPhaseCommit:
				// Materialize the batch. Installs replace wholesale — a
				// migration copy carries the chunk's full bytes, possibly
				// SHORTER than what an older replayed write grew (the source
				// may have been trimmed), so the grow-only applyRecovered
				// merge would keep a stale tail. The version guard mirrors
				// the live install (setChunkIfNewer): a newer foreground
				// write logged before the copy wins.
				for id, pw := range migPend {
					if pw.ver > vers[id] {
						chunks[id] = pw.data
						vers[id] = pw.ver
					}
				}
				for id := range migDel {
					delete(chunks, id)
					delete(vers, id)
					delete(debt, id)
				}
				migPend, migDel = nil, nil
			default:
				return fmt.Errorf("blob: migrate batch record: unknown phase %d", phase)
			}
			return nil
		default:
			return fmt.Errorf("blob: recover node %d: unknown record type %v", node, rec.Type)
		}
	})
	if err != nil {
		return fmt.Errorf("blob: recover node %d: %w", node, err)
	}
	// Keep the migration sequence monotonic past everything the log has
	// seen, and publish a replayed open intent store-wide (monotonically:
	// several recovering servers may each replay one). Recovery requires
	// store quiescence, so no live migration races these.
	if maxMigSeq > s.migSeq {
		s.migSeq = maxMigSeq
	}
	if openIntent != nil {
		if cur := s.migIntent.Load(); cur == nil || cur.seq < openIntent.seq {
			s.migIntent.Store(openIntent)
		}
	}
	sv.mu.Lock()
	sv.blobs = blobs
	sv.mu.Unlock()
	// Scatter the rebuilt chunks across the worker pool; insertions into
	// distinct lock stripes proceed in parallel and the map is read-only
	// here, so order does not matter. sv.mu is deliberately NOT held
	// across this wait: a worker must never block on a lock whose holder
	// is waiting on the pool (see the dispatch.go contract).
	sv.resetChunks()
	ids := make([]chunkID, 0, len(chunks))
	for id := range chunks {
		//blobvet:allow virtualtime chunk installs commute: distinct stripes, read-only source map, no observable order after the join
		ids = append(ids, id)
	}
	parallelDo(len(ids), func(i int) {
		id := ids[i]
		sv.setChunk(id.ringHash(), id, chunks[id], vers[id])
	})
	// Install surviving repair debt serially: a crash leaves a handful of
	// debt entries at most, not a chunk table's worth.
	for id, mask := range debt {
		st := sv.stripe(id.ringHash())
		st.mu.Lock()
		sv.setDebtLocked(st, id, mask)
		st.mu.Unlock()
	}
	// The replayed tables are in place: sv's memory is authoritative again
	// (though possibly behind), so the resync below may consult it — and
	// peers' resyncs may consult sv — even while sv is still marked down.
	sv.mu.Lock()
	sv.wiped = false
	sv.mu.Unlock()
	tracef("recover node=%d replayed chunks=%d debts=%d", node, len(chunks), len(debt))
	// Resync from live peers BEFORE serving: the merged-replay prefix
	// contract can drop acknowledged writes behind a torn lane tail, and
	// this node's own debt records only cover what its log survived. A
	// version sweep against the peers catches both that loss and every
	// write the node missed while down.
	s.resyncNode(sv)
	sv.mu.Lock()
	sv.down = false
	sv.mu.Unlock()
	// Now that the node serves again, drain the debt peers accumulated
	// against it (and any stale debt record naming an already-fresh copy).
	// The full drain, not the node-scoped one: the bidirectional resync
	// sweep may just have recorded debt naming LIVE peers that missed
	// writes this node's replayed log proves were acknowledged.
	s.Repair(storage.NewContext())
	// Roll an interrupted migration forward once the whole store is back:
	// the reconcile sweep re-runs from the replayed intent (idempotent —
	// placement already consistent means an empty plan) and the intent is
	// durably closed. While any server is still wiped, its unreplayed state
	// must not be reconciled around, so the roll-forward waits for the last
	// Recover of the crash.
	if s.migIntent.Load() != nil && !s.anyWiped() {
		s.resumeMigration(storage.NewContext())
	}
	return nil
}

// anyWiped reports whether any server is crashed-but-not-yet-recovered.
func (s *Store) anyWiped() bool {
	for _, sv := range s.servers {
		if sv.isWiped() {
			return true
		}
	}
	return false
}

// ckptBatchBytes and ckptBatchRecords bound one checkpoint append. The
// lane writer streams its records in AppendNV batches of at most about
// this many bytes and records: large enough that the lane lock, the flush
// and the medium write are paid once per hundred small records, small
// enough that a batch's chunk bytes are still in cache when the CRC pass
// and the copy to the medium read them, and that the per-lane staging the
// store keeps between checkpoints stays tens of kilobytes even for
// header-only descriptor records.
const (
	ckptBatchBytes   = 128 << 10
	ckptBatchRecords = 256
	// ckptRecOverhead is a record's WAL framing, counted in batch sizes.
	ckptRecOverhead = 17
)

// ckptLane is one lane's share of a server's checkpoint: the descriptor,
// chunk and debt records whose natural lane (descriptor ring hash, chunk
// placement hash) is this lane, plus the staging its writer encodes them
// through. The store keeps one per lane between checkpoints (Store.ckpt)
// and every stage truncates rather than reallocates, so a steady
// checkpoint cycle reuses the same backing arrays.
type ckptLane struct {
	metas  []ckptMeta
	chunks []ckptChunk
	debts  []ckptDebt
	// intent, set only on the migration lane, re-logs an open migration
	// intent: the checkpoint's reset would otherwise drop the
	// RecMigrateBegin record, and a crash after the checkpoint could no
	// longer roll the interrupted migration forward.
	intent *migrationIntent

	// hdrs holds the current batch's record headers back to back; ends[i]
	// is where record i's header ends in it. specs is the batch handed to
	// AppendNV, its headers sliced out of hdrs once the batch is complete
	// (hdrs may move while it grows).
	hdrs  []byte
	ends  []int
	specs []wal.AppendVSpec
}

// records counts the lane's checkpoint records: the key range the lane
// reserves (wal.MultiLog.ResetAllRanges).
func (l *ckptLane) records() int {
	n := len(l.metas) + len(l.chunks) + len(l.debts)
	if l.intent != nil {
		n++
	}
	return n
}

type ckptMeta struct {
	key  string
	size int64
}

type ckptChunk struct {
	id   chunkID
	ver  uint64
	data []byte
}

type ckptDebt struct {
	id   chunkID
	mask uint64
}

// stripeFeedsLane reports whether chunk stripe si can hold chunks whose
// log lane is lane, and whether every chunk in the stripe belongs to that
// lane. Both select on the same placement-hash bits (the stripe on the
// low four of h>>32, the lane on h>>32 modulo the lane count), so with a
// lane count dividing the stripe count each stripe feeds exactly one lane
// — the default 16 lanes pair stripe i with lane i — and a lane job reads
// only its own stripes. With any other lane count every stripe is read
// and filtered by the chunk's lane.
func stripeFeedsLane(si, lane, lanes int) (feeds, whole bool) {
	if chunkStripes%lanes != 0 {
		return true, false
	}
	feeds = si%lanes == lane
	return feeds, feeds
}

// checkpointBegin is the caller's stage for sv: it buckets the
// descriptors into ck, one entry per lane, under sv.mu, and reports
// whether sv takes part. A down server does not: its volatile state is
// empty and its WAL is the only recovery source — checkpointing it would
// snapshot nothing and discard that source, silent data loss.
func (sv *server) checkpointBegin(ck []ckptLane) bool {
	sv.mu.RLock()
	defer sv.mu.RUnlock()
	if sv.down {
		return false
	}
	// Size the buckets for an even spread plus headroom, so appends
	// rarely grow them and a grown bucket is not left at twice its need.
	want := len(sv.blobs) / len(ck)
	want += want/8 + 16
	for i := range ck {
		l := &ck[i]
		if cap(l.metas) < want {
			l.metas = make([]ckptMeta, 0, want)
		}
		l.metas = l.metas[:0]
	}
	for key, d := range sv.blobs {
		l := &ck[sv.metaLane(key)]
		//blobvet:allow virtualtime each lane's metas are sorted in checkpointSnapshot before checkpointLane appends them
		l.metas = append(l.metas, ckptMeta{key, d.size})
	}
	return true
}

// checkpointSnapshot is the first pool stage, one job per lane: it
// collects the lane's chunk replicas and debts into l from the stripes
// that feed the lane, and puts the lane's records in (key, idx) order —
// the stripes are maps, and their iteration order must not pick the log's
// record sequence.
//
// The snapshot holds live chunk slices by reference; the quiescence the
// checkpoint requires (no concurrent mutations, the Crash/Recover
// discipline) is what keeps them stable until checkpointLane has streamed
// them out.
func (sv *server) checkpointSnapshot(lane int, l *ckptLane) {
	lanes := sv.wal.Lanes()
	// The list stays allocated between checkpoints, so size it to the
	// feeding stripes plus headroom instead of letting appends double it.
	need := 0
	for si := range sv.stripes {
		if feeds, _ := stripeFeedsLane(si, lane, lanes); feeds {
			need += sv.stripes[si].len()
		}
	}
	if need > cap(l.chunks) {
		l.chunks = make([]ckptChunk, 0, need+need/8)
	}
	l.chunks, l.debts = l.chunks[:0], l.debts[:0]
	for si := range sv.stripes {
		feeds, whole := stripeFeedsLane(si, lane, lanes)
		if !feeds {
			continue
		}
		st := &sv.stripes[si]
		st.mu.RLock()
		for id, data := range st.m {
			if whole || sv.chunkLane(id.ringHash()) == lane {
				l.chunks = append(l.chunks, ckptChunk{id, st.ver[id], data})
			}
		}
		// Outstanding repair debt must survive the compaction: re-log each
		// chunk's current mask so a crash between checkpoint and repair
		// still recovers knowing which replicas owe copies.
		for id, mask := range st.debt {
			if whole || sv.chunkLane(id.ringHash()) == lane {
				l.debts = append(l.debts, ckptDebt{id, mask})
			}
		}
		st.mu.RUnlock()
	}
	slices.SortFunc(l.metas, func(a, b ckptMeta) int { return strings.Compare(a.key, b.key) })
	slices.SortFunc(l.chunks, func(a, b ckptChunk) int { return a.id.compare(b.id) })
	slices.SortFunc(l.debts, func(a, b ckptDebt) int { return a.id.compare(b.id) })
	// An open migration intent is part of the durable state the snapshot
	// must carry forward (batch buffers need not be: a checkpoint requires
	// quiescence, so no batch is torn open at this point — the chunk table
	// already reflects every committed batch).
	l.intent = nil
	if lane == migLane {
		l.intent = sv.migIntent.Load()
	}
}

// checkpointLane is the second pool stage, one job per lane: it streams
// the lane's snapshot l to the lane's own medium, which the caller has
// reset with this lane's key range, so the records get the same keys
// whichever lane job runs first. Records go out in AppendNV batches of
// about ckptBatchBytes: each record's header is encoded into the lane's
// staging, and each chunk's bytes stream from the live chunk slice to the
// compacted lane in one copy. The staging, the lane's Log scratch and the
// slabs ResetAllRanges just freed are all reused, so a steady checkpoint
// cycle allocates nothing — and because every lane appends to a private
// Log/Buffer, lane jobs run concurrently without sharing a single lock or
// medium (dispatch contract: the job takes no latch-class lock and never
// waits on the pool).
func (sv *server) checkpointLane(lane int, l *ckptLane) {
	batched := 0 // encoded bytes of the records in l.specs
	flush := func() {
		start := 0
		for i, end := range l.ends {
			l.specs[i].Header = l.hdrs[start:end]
			start = end
		}
		if _, _, err := sv.wal.AppendNV(lane, l.specs); err != nil {
			panic(fmt.Sprintf("blob: checkpoint node %d: %v", sv.node, err))
		}
		clear(l.specs) // drop chunk references until the next batch
		l.specs, l.ends, l.hdrs, batched = l.specs[:0], l.ends[:0], l.hdrs[:0], 0
	}
	// add queues one record whose header the caller just appended to
	// l.hdrs.
	add := func(t wal.RecordType, data []byte) {
		start := 0
		if k := len(l.ends); k > 0 {
			start = l.ends[k-1]
		}
		l.ends = append(l.ends, len(l.hdrs))
		l.specs = append(l.specs, wal.AppendVSpec{Type: t, Payload: data})
		batched += ckptRecOverhead + len(l.hdrs) - start + len(data)
		if batched >= ckptBatchBytes || len(l.specs) == ckptBatchRecords {
			flush()
		}
	}
	if l.intent != nil {
		// First record of the compacted migration lane — key 1 — so
		// replay reopens the intent before anything else.
		l.hdrs = appendMigrateIntent(l.hdrs, l.intent.seq, l.intent.op, l.intent.node)
		add(wal.RecMigrateBegin, nil)
	}
	for _, m := range l.metas {
		l.hdrs = appendMetaPayload(l.hdrs, m.key, m.size)
		add(wal.RecCreate, nil)
	}
	for _, c := range l.chunks {
		l.hdrs = appendChunkHeader(l.hdrs, c.id, 0, c.ver)
		add(wal.RecWrite, c.data)
	}
	for _, d := range l.debts {
		// RecRepairNeeded reuses the chunk header with the mask in the
		// version slot (codec.go); overwrite-replay makes one record per
		// chunk sufficient.
		l.hdrs = appendChunkHeader(l.hdrs, d.id, 0, d.mask)
		add(wal.RecRepairNeeded, nil)
	}
	if len(l.specs) > 0 {
		flush()
	}
	// Keep the backing arrays, not what they point at: a key or chunk
	// deleted before the next checkpoint must not stay reachable from here.
	clear(l.metas)
	clear(l.chunks)
	clear(l.debts)
	l.metas, l.chunks, l.debts, l.intent = l.metas[:0], l.chunks[:0], l.debts[:0], nil
}

// Checkpoint rewrites a server's write-ahead log as a snapshot of its
// current volatile state — one record per descriptor, chunk replica and
// debt entry — and drops the old log content, bounding log growth the way
// real object stores compact their journals. Recovery after a checkpoint
// replays the snapshot exactly. The rewrite runs in stages:
//
//  1. the caller buckets the descriptors by lane (checkpointBegin);
//  2. one pool job per lane snapshots and sorts the lane's records
//     (checkpointSnapshot);
//  3. the caller resets the lanes, giving each the contiguous order-key
//     range its record count fixes (wal.MultiLog.ResetAllRanges);
//  4. one pool job per lane streams the records out in batches
//     (checkpointLane).
//
// The compacted log is therefore byte-identical across runs of one seed,
// however the pool schedules the jobs. The server must be quiescent (no
// concurrent mutations) for the duration, the same discipline Crash and
// Recover require; like every parallelDo caller, Checkpoint must not run
// on a pool worker. A down server is left as it is.
func (s *Store) Checkpoint(node cluster.NodeID) {
	s.checkpoint(s.servers[int(node) : int(node)+1])
}

// CheckpointAll checkpoints every live server; the store must be
// quiescent. Down servers are skipped (their WAL is their only state).
// Servers are rewritten one after another, each through Checkpoint's
// stages, so the record lists held between the stages are one server's
// worth, not the whole store's. The pool stages stay flat — the caller
// runs each one — rather than a per-server parallelDo nested inside pool
// workers, which the dispatch contract forbids (a worker blocking on a
// nested pool wait can deadlock a saturated pool).
func (s *Store) CheckpointAll() {
	s.checkpoint(s.servers)
}

// checkpoint runs the checkpoint stages for each server of svs in turn
// (see Checkpoint), through the store's shared per-lane scratch.
func (s *Store) checkpoint(svs []*server) {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	if s.ckpt == nil {
		s.ckpt = make([]ckptLane, s.cfg.WALLanes)
		s.ckptCounts = make([]int, s.cfg.WALLanes)
	}
	for _, sv := range svs {
		if !sv.checkpointBegin(s.ckpt) {
			continue
		}
		parallelDo(len(s.ckpt), func(lane int) {
			sv.checkpointSnapshot(lane, &s.ckpt[lane])
		})
		for lane := range s.ckpt {
			s.ckptCounts[lane] = s.ckpt[lane].records()
		}
		sv.wal.ResetAllRanges(s.ckptCounts)
		parallelDo(len(s.ckpt), func(lane int) {
			sv.checkpointLane(lane, &s.ckpt[lane])
		})
	}
}

// DescriptorCount reports how many blob descriptors (primary or replica
// copies) the server currently holds.
func (s *Store) DescriptorCount(node cluster.NodeID) int {
	sv := s.servers[int(node)]
	sv.mu.RLock()
	defer sv.mu.RUnlock()
	return len(sv.blobs)
}

// ChunkCount reports how many chunk replicas the server currently holds.
func (s *Store) ChunkCount(node cluster.NodeID) int {
	return s.servers[int(node)].chunkCount()
}

// WALSize reports the encoded bytes currently held across all of the
// server's log lanes — the volume a crash recovery of that server decodes.
// Exact only while the server is quiescent.
func (s *Store) WALSize(node cluster.NodeID) int64 {
	return s.servers[int(node)].wal.Size()
}

// CheckInvariants validates cross-server consistency:
//
//  1. every descriptor on a primary is present on all of its replicas with
//     the same size;
//  2. every chunk replica belongs to a live blob and lies within its size;
//  3. replicas of one chunk hold identical bytes — except replicas named in
//     the chunk's repair-debt mask (unioned across owners), which a
//     degraded write is allowed to leave behind until repair clears them.
//
// It returns a description of the first violation found, or "". After every
// node has rejoined and repair drained (RepairPending() == 0), the debt
// exemption is vacuous and the full strict check applies.
func (s *Store) CheckInvariants() string {
	for i, sv := range s.servers {
		sv.mu.RLock()
		keys := make([]string, 0, len(sv.blobs))
		sizes := make(map[string]int64, len(sv.blobs))
		for k, d := range sv.blobs {
			keys = append(keys, k)
			sizes[k] = d.size
		}
		sv.mu.RUnlock()
		// "First violation found" should name the same violation on
		// every run of one seed.
		sort.Strings(keys)
		for _, key := range keys {
			owners := s.descOwners(key)
			if owners[0] != i {
				continue // only validate from the primary's view
			}
			for _, o := range owners[1:] {
				rs := s.servers[o]
				rs.mu.RLock()
				rd, ok := rs.blobs[key]
				var rsize int64
				if ok {
					rsize = rd.size
				}
				rs.mu.RUnlock()
				if !ok {
					return fmt.Sprintf("descriptor %q missing on replica node %d", key, o)
				}
				if rsize != sizes[key] {
					return fmt.Sprintf("descriptor %q size mismatch: primary %d, replica node %d has %d",
						key, sizes[key], o, rsize)
				}
			}
		}
	}

	// Chunk-level checks from each chunk primary's view. The reference
	// replica is copied into ref, one buffer reused for every chunk, and
	// each other replica is compared against it in place under its own
	// stripe lock, so no two stripe locks are ever held together.
	var ids []chunkID
	var ref []byte
	for i, sv := range s.servers {
		ids = ids[:0]
		sv.forEachChunk(func(id chunkID, _ []byte, _ uint64) {
			ids = append(ids, id)
		})
		for _, id := range ids {
			h := id.ringHash()
			owners := s.ownersForHash(h)
			if owners[0] != i {
				continue
			}
			_, d, err := s.primaryDesc(id.key)
			if err != nil {
				return fmt.Sprintf("chunk %d of %q has no live blob", id.idx, id.key)
			}
			d.latch.RLock()
			size := d.size
			d.latch.RUnlock()
			if id.idx*int64(s.cfg.ChunkSize) >= size {
				return fmt.Sprintf("chunk %d of %q lies beyond blob size %d", id.idx, id.key, size)
			}
			// Union the debt mask across owners; replicas it names missed
			// degraded writes and legitimately diverge until repaired.
			var stale uint64
			for _, o := range owners {
				stale |= s.servers[o].debtMask(h, id)
			}
			refNode := -1
			var refVer uint64
			for _, o := range owners {
				if o < 64 && stale&(1<<uint(o)) != 0 {
					continue
				}
				if refNode < 0 {
					refNode = o
					ref, refVer = s.servers[o].copyChunkInto(ref[:0], h, id)
					continue
				}
				ver, same := s.servers[o].chunkMatches(h, id, ref)
				if ver != refVer {
					return fmt.Sprintf("chunk %d of %q version diverges between node %d (v%d) and node %d (v%d)",
						id.idx, id.key, refNode, refVer, o, ver)
				}
				if !same {
					return fmt.Sprintf("chunk %d of %q diverges between node %d and node %d", id.idx, id.key, refNode, o)
				}
			}
		}
	}
	return ""
}
