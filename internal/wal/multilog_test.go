package wal

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

// TestMultiLogSingleLaneByteIdentical pins the acceptance baseline: a
// MultiLog with one lane, driven through any mix of AppendV and AppendNV,
// produces a byte stream identical to a plain Log fed the same appends —
// the lane format IS the single-log format, order keys land where LSNs do.
func TestMultiLogSingleLaneByteIdentical(t *testing.T) {
	f := func(ops []vOp, batchEvery uint8) bool {
		m := NewMultiLog(1)
		var rb Buffer
		ref := New(&rb)

		every := int(batchEvery%4) + 1
		var batch []AppendVSpec
		flush := func() bool {
			if len(batch) == 0 {
				return true
			}
			mk, mn, err := m.AppendNV(0, batch)
			if err != nil {
				return false
			}
			rk, rn, err := ref.AppendNV(batch)
			if err != nil {
				return false
			}
			batch = batch[:0]
			return mk == rk && mn == rn
		}
		for i, op := range ops {
			if i%every == every-1 {
				batch = append(batch, AppendVSpec{Type: RecordType(op.T), Header: op.Header, Payload: op.Payload})
				if !flush() {
					return false
				}
				continue
			}
			mk, mn, err := m.AppendV(0, RecordType(op.T), op.Header, op.Payload)
			if err != nil {
				return false
			}
			rk, rn, err := ref.AppendV(RecordType(op.T), op.Header, op.Payload)
			if err != nil {
				return false
			}
			if mk != rk || mn != rn {
				return false
			}
		}
		if !flush() {
			return false
		}
		got := readerBytes(t, m.LaneBuffer(0))
		want := readerBytes(t, &rb)
		if !bytes.Equal(got, want) {
			t.Logf("single-lane MultiLog diverges from Log: %d vs %d bytes", len(got), len(want))
			return false
		}
		return m.Size() == ref.Size()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestMultiLogMergedOrderConcurrent drives concurrent appenders across the
// lanes and checks the merge contract: ReplayMerged yields every record
// exactly once, keys exactly consecutive from 1, each record bit-identical
// to what the appender that received that key wrote.
func TestMultiLogMergedOrderConcurrent(t *testing.T) {
	const (
		writers = 8
		perW    = 200
		lanes   = 4
	)
	m := NewMultiLog(lanes)
	type wrote struct {
		typ     RecordType
		payload []byte
	}
	byKey := make([]wrote, writers*perW+1) // 1-indexed by order key
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j < perW; j++ {
				lane := (w + j) % lanes
				typ := RecordType(1 + (w+j)%11)
				payload := []byte(fmt.Sprintf("w%d-j%d", w, j))
				split := j % (len(payload) + 1)
				key, _, err := m.AppendV(lane, typ, payload[:split], payload[split:])
				if err != nil {
					t.Errorf("append: %v", err)
					return
				}
				mu.Lock()
				if byKey[key].payload != nil {
					t.Errorf("key %d assigned twice", key)
				}
				byKey[key] = wrote{typ, payload}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()

	next := uint64(1)
	err := m.ReplayMerged(func(rec Record) error {
		if rec.LSN != next {
			return fmt.Errorf("merged key %d, want %d", rec.LSN, next)
		}
		want := byKey[rec.LSN]
		if rec.Type != want.typ || !bytes.Equal(rec.Payload, want.payload) {
			return fmt.Errorf("key %d: record %v %q diverges from appended %v %q",
				rec.LSN, rec.Type, rec.Payload, want.typ, want.payload)
		}
		next++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := next-1, uint64(writers*perW); got != want {
		t.Fatalf("merged %d records, appended %d", got, want)
	}
}

// TestMultiLogGroupCommitCoalesces is the white-box staging test: requests
// pre-loaded into a lane's ring must flush as ONE medium write with
// consecutive keys and per-request sizes matching the reference encoding.
func TestMultiLogGroupCommitCoalesces(t *testing.T) {
	m := NewMultiLog(2)
	ln := &m.lanes[1]

	reqs := []*laneReq{
		{typ: RecWrite, header: []byte("hh"), payload: []byte("payload-one"), done: make(chan struct{}, 1)},
		{typ: RecCommit, done: make(chan struct{}, 1)},
		{batch: []AppendVSpec{
			{Type: RecCreate, Header: []byte("k1")},
			{Type: RecDelete, Payload: []byte("k2")},
		}, done: make(chan struct{}, 1)},
	}
	ln.mu.Lock()
	ln.flushing = true
	ln.queue = append(ln.queue, reqs...)
	ln.mu.Unlock()

	before := ln.buf.Writes()
	ln.drain()
	if got := ln.buf.Writes() - before; got != 1 {
		t.Fatalf("group commit issued %d medium writes for 3 staged requests, want 1", got)
	}
	wantKeys := []uint64{1, 2, 3} // batch occupies keys 3,4
	wantN := []int{
		recPrefixLen + 2 + 11,
		recPrefixLen,
		2*recPrefixLen + 2 + 2,
	}
	for i, r := range reqs {
		select {
		case <-r.done:
		default:
			t.Fatalf("request %d was not signaled", i)
		}
		if r.err != nil {
			t.Fatalf("request %d: %v", i, r.err)
		}
		if r.key != wantKeys[i] || r.n != wantN[i] {
			t.Fatalf("request %d: key=%d n=%d, want key=%d n=%d", i, r.key, r.n, wantKeys[i], wantN[i])
		}
	}
	var got []Record
	if err := m.ReplayMerged(func(rec Record) error {
		got = append(got, Record{Type: rec.Type, LSN: rec.LSN, Payload: append([]byte(nil), rec.Payload...)})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("replayed %d records, want 4", len(got))
	}
	if got[0].Type != RecWrite || string(got[0].Payload) != "hhpayload-one" ||
		got[1].Type != RecCommit || got[2].Type != RecCreate || got[3].Type != RecDelete {
		t.Fatalf("coalesced batch replayed wrong: %+v", got)
	}
	if !ln.flushing && len(ln.queue) == 0 {
		return
	}
	t.Fatal("drain left the lane owned or non-empty")
}

// TestMultiLogRecoverRepairsTornLanes: a tear on one lane must make the
// merged prefix stop at the gap, recovery must truncate every lane to the
// prefix — including records on OTHER lanes that decoded clean but lie
// logically after the gap — and post-recovery appends must extend the
// prefix and survive the next replay.
func TestMultiLogRecoverRepairsTornLanes(t *testing.T) {
	m := NewMultiLog(2)
	// Alternate lanes: keys 1,3,5 on lane 0; keys 2,4,6 on lane 1.
	for i := 1; i <= 6; i++ {
		lane := (i + 1) % 2
		if _, _, err := m.AppendV(lane, RecWrite, nil, []byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Tear lane 0's tail: key 5's record is damaged -> merged prefix is
	// keys 1..4; key 6 on lane 1 is clean on its medium but unrecoverable.
	b0 := m.LaneBuffer(0)
	b0.Truncate(b0.Len() - 2)
	lane1Full := m.LaneBuffer(1).Len()

	var keys []uint64
	if err := m.RecoverMerged(func(rec Record) error {
		keys = append(keys, rec.LSN)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 4 || keys[3] != 4 {
		t.Fatalf("recovered keys %v, want [1 2 3 4]", keys)
	}
	if m.LaneBuffer(1).Len() >= lane1Full {
		t.Fatal("repair did not truncate the after-gap record off lane 1")
	}
	if m.NextKey() != 5 {
		t.Fatalf("NextKey after recovery = %d, want 5", m.NextKey())
	}

	// Post-recovery appends land at key 5 and the next replay is clean and
	// complete.
	if key, _, err := m.AppendV(0, RecCommit, nil, []byte("after")); err != nil || key != 5 {
		t.Fatalf("post-recovery append: key=%d err=%v", key, err)
	}
	keys = keys[:0]
	if err := m.ReplayMerged(func(rec Record) error {
		keys = append(keys, rec.LSN)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 5 || keys[4] != 5 {
		t.Fatalf("replay after post-recovery append: keys %v, want [1 2 3 4 5]", keys)
	}
}

// TestMultiLogCorruptLaneReportsErrCorrupt: a checksum failure on a lane
// the merge still needs must surface as ErrCorrupt, with only the exact
// pre-corruption prefix yielded, and RecoverMerged must refuse to repair.
func TestMultiLogCorruptLaneReportsErrCorrupt(t *testing.T) {
	m := NewMultiLog(2)
	for i := 1; i <= 4; i++ {
		if _, _, err := m.AppendV(i%2, RecWrite, nil, []byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Flip a byte inside lane 1's first record (keys 1 and 3 live there).
	if err := m.LaneBuffer(1).Corrupt(recPrefixLen); err != nil {
		t.Fatal(err)
	}
	var n int
	err := m.ReplayMerged(func(Record) error { n++; return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if n != 0 {
		t.Fatalf("yielded %d records past a corrupt key-1 record, want 0", n)
	}
	if err := m.RecoverMerged(func(Record) error { return nil }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("RecoverMerged err = %v, want ErrCorrupt", err)
	}
}

// TestMultiLogResetAllRestartsKeys: checkpoint compaction must restart the
// order keys at 1 so merged replay's start-at-1 invariant holds for the
// snapshot that follows, and the lanes must be empty.
func TestMultiLogResetAllRestartsKeys(t *testing.T) {
	m := NewMultiLog(3)
	for i := 0; i < 10; i++ {
		if _, _, err := m.AppendV(i%3, RecWrite, nil, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	m.ResetAll()
	if m.Size() != 0 || m.NextKey() != 1 {
		t.Fatalf("after ResetAll: size=%d nextKey=%d", m.Size(), m.NextKey())
	}
	key, _, err := m.AppendV(2, RecCreate, nil, []byte("snapshot"))
	if err != nil || key != 1 {
		t.Fatalf("first post-reset append: key=%d err=%v", key, err)
	}
	count := 0
	if err := m.ReplayMerged(func(rec Record) error {
		count++
		if rec.LSN != 1 || rec.Type != RecCreate {
			return fmt.Errorf("unexpected record %v key %d", rec.Type, rec.LSN)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Fatalf("replayed %d records after reset+append, want 1", count)
	}
}

// TestMultiLogResetAllRangesFixesKeys: after ResetAllRanges each lane's
// appends carry the keys of its own reserved range whatever order the lanes
// are written in, so two runs that write the lanes in opposite orders (or
// concurrently) leave byte-identical media. Merged replay then yields the
// lanes one after another, appends past a range fail without writing, and
// once the ranges are used up appends follow the compacted history.
func TestMultiLogResetAllRangesFixesKeys(t *testing.T) {
	counts := []int{2, 0, 3}
	fill := func(order []int) *MultiLog {
		m := NewMultiLog(3)
		for i := 0; i < 7; i++ {
			if _, _, err := m.AppendV(i%3, RecWrite, nil, []byte("old")); err != nil {
				t.Fatal(err)
			}
		}
		m.ResetAllRanges(counts)
		if m.Size() != 0 || m.NextKey() != 6 {
			t.Fatalf("after ResetAllRanges: size=%d nextKey=%d", m.Size(), m.NextKey())
		}
		for _, lane := range order {
			specs := make([]AppendVSpec, counts[lane])
			for i := range specs {
				specs[i] = AppendVSpec{Type: RecCreate, Header: []byte{byte(lane)}, Payload: []byte{byte(i)}}
			}
			if _, _, err := m.AppendNV(lane, specs); err != nil {
				t.Fatal(err)
			}
		}
		return m
	}
	a, b := fill([]int{0, 1, 2}), fill([]int{2, 1, 0})
	for lane := range counts {
		ra, _ := ReplayAll(a.LaneBuffer(lane).Reader())
		rb, _ := ReplayAll(b.LaneBuffer(lane).Reader())
		if fmt.Sprint(ra) != fmt.Sprint(rb) {
			t.Fatalf("lane %d differs with write order:\n%v\n%v", lane, ra, rb)
		}
	}
	var lanes []byte
	if err := a.ReplayMerged(func(rec Record) error {
		lanes = append(lanes, rec.Payload[0])
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if want := []byte{0, 0, 2, 2, 2}; !bytes.Equal(lanes, want) {
		t.Fatalf("merged replay visits lanes %v, want %v", lanes, want)
	}
	if key, _, err := a.AppendV(1, RecWrite, nil, nil); err != nil || key != 6 {
		t.Fatalf("append after the ranges: key=%d err=%v, want 6", key, err)
	}
	m := NewMultiLog(2)
	m.ResetAllRanges([]int{1, 0})
	if _, _, err := m.AppendNV(0, make([]AppendVSpec, 2)); err == nil {
		t.Fatal("append past the reserved range succeeded")
	}
	if m.Size() != 0 {
		t.Fatalf("failed append wrote %d bytes", m.Size())
	}
	if key, _, err := m.AppendV(0, RecCreate, nil, nil); err != nil || key != 1 {
		t.Fatalf("in-range append: key=%d err=%v", key, err)
	}
	if key, _, err := m.AppendV(0, RecCreate, nil, nil); err != nil || key != 2 {
		t.Fatalf("post-range append: key=%d err=%v, want the shared counter's key 2", key, err)
	}
}

// batchedFeed serves a lane's pre-decoded records from memory — the
// staged-decode shape the blob store's parallel recovery pipeline hands
// the merge, terminal state included. Unlike a live Decoder it exposes the
// already-materialized transitions (batch exhaustion, done/err after a
// partial run) the feed contract has to define precisely.
type batchedFeed struct {
	recs   []Record
	frames []int64
	i      int
	done   bool
	err    error
}

func (f *batchedFeed) Next() (Record, int64, bool, error) {
	if f.i < len(f.recs) {
		rec, frame := f.recs[f.i], f.frames[f.i]
		f.i++
		return rec, frame, false, nil
	}
	return Record{}, 0, f.done, f.err
}

// preDecode drains one lane through the exported Decoder into a
// batchedFeed, exactly what a concurrent pre-decoding stage produces.
func preDecode(m *MultiLog, lane int) *batchedFeed {
	f := &batchedFeed{}
	dec := NewDecoder(m.LaneBuffer(lane).Reader())
	for {
		rec, frame, done, err := dec.Next()
		if done || err != nil {
			f.done, f.err = done, err
			return f
		}
		f.recs = append(f.recs, rec)
		f.frames = append(f.frames, frame)
	}
}

func preDecodeAll(m *MultiLog) []LaneFeed {
	feeds := make([]LaneFeed, m.Lanes())
	for lane := range feeds {
		feeds[lane] = preDecode(m, lane)
	}
	return feeds
}

// fillMergedFixture drives a deterministic interleaved history across 3
// lanes (singles and batches), so two calls produce byte-identical logs.
func fillMergedFixture(t *testing.T, m *MultiLog) {
	t.Helper()
	for i := 0; i < 40; i++ {
		lane := (i * 7) % 3
		payload := make([]byte, 5+(i*11)%90)
		for j := range payload {
			payload[j] = byte(i + j)
		}
		if i%5 == 4 {
			specs := []AppendVSpec{
				{Type: RecWrite, Header: payload[:2], Payload: payload[2:]},
				{Type: RecCommit, Payload: payload[:3]},
			}
			if _, _, err := m.AppendNV(lane, specs); err != nil {
				t.Fatal(err)
			}
		} else if _, _, err := m.AppendV(lane, RecWrite, payload[:1], payload[1:]); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMergedFeedsMatchSerial pins ReplayMergedFeeds/RecoverMergedFeeds
// against the serial decode path on the same torn media: identical record
// sequences, identical error, and — after recovery through feeds on one
// log and through the serial path on a byte-identical twin — identical
// repaired media and size accounting.
func TestMergedFeedsMatchSerial(t *testing.T) {
	for _, tear := range []struct {
		name string
		cut  func(m *MultiLog)
	}{
		{"untouched", func(m *MultiLog) {}},
		{"one-lane-torn", func(m *MultiLog) { m.LaneBuffer(1).Truncate(m.LaneBuffer(1).Len() - 4) }},
		{"two-lanes-torn", func(m *MultiLog) {
			m.LaneBuffer(0).Truncate(m.LaneBuffer(0).Len() / 2)
			m.LaneBuffer(2).Truncate(m.LaneBuffer(2).Len() - 1)
		}},
		{"lane-cleared", func(m *MultiLog) { m.LaneBuffer(2).Truncate(0) }},
		{"corrupt", func(m *MultiLog) {
			if err := m.LaneBuffer(0).Corrupt(10); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tear.name, func(t *testing.T) {
			m := NewMultiLog(3)
			twin := NewMultiLog(3)
			fillMergedFixture(t, m)
			fillMergedFixture(t, twin)
			tear.cut(m)
			tear.cut(twin)

			collect := func(dst *[]Record) func(Record) error {
				return func(rec Record) error {
					p := append([]byte(nil), rec.Payload...)
					*dst = append(*dst, Record{Type: rec.Type, LSN: rec.LSN, Payload: p})
					return nil
				}
			}
			var serial, fed []Record
			errSerial := m.ReplayMerged(collect(&serial))
			errFed := m.ReplayMergedFeeds(preDecodeAll(m), collect(&fed))
			if !errors.Is(errSerial, errFed) && !errors.Is(errFed, errSerial) {
				t.Fatalf("replay errors diverge: serial %v, feeds %v", errSerial, errFed)
			}
			if len(serial) != len(fed) {
				t.Fatalf("feeds merged %d records, serial %d", len(fed), len(serial))
			}
			for i := range serial {
				if serial[i].Type != fed[i].Type || serial[i].LSN != fed[i].LSN ||
					!bytes.Equal(serial[i].Payload, fed[i].Payload) {
					t.Fatalf("record %d diverges between serial and feed merge", i)
				}
			}
			if errSerial != nil {
				return // corrupt media: no repair to compare
			}

			// Recovery through feeds on m, through serial decode on the twin:
			// repaired media and accounting must be byte-identical.
			if err := m.RecoverMergedFeeds(preDecodeAll(m), func(Record) error { return nil }); err != nil {
				t.Fatalf("feed recovery: %v", err)
			}
			if err := twin.RecoverMerged(func(Record) error { return nil }); err != nil {
				t.Fatalf("serial recovery: %v", err)
			}
			for lane := 0; lane < 3; lane++ {
				got := readerBytes(t, m.LaneBuffer(lane))
				want := readerBytes(t, twin.LaneBuffer(lane))
				if !bytes.Equal(got, want) {
					t.Fatalf("lane %d repaired media diverge: %d vs %d bytes", lane, len(got), len(want))
				}
				if m.LaneSize(lane) != twin.LaneSize(lane) {
					t.Fatalf("lane %d size accounting diverges: %d vs %d", lane, m.LaneSize(lane), twin.LaneSize(lane))
				}
			}
			if m.NextKey() != twin.NextKey() {
				t.Fatalf("re-based keys diverge: %d vs %d", m.NextKey(), twin.NextKey())
			}
		})
	}
}
