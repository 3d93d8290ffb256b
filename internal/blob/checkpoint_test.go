package blob

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/storage"
)

// checkpointWorkload builds a 5-node store (default lanes, pool dispatch)
// and drives a seeded history into it: creates, multi-chunk writes,
// overwrites, truncates, deletes, and writes made while node 4 is down, so
// the live servers carry repair debt. Node 4 stays down, so a checkpoint
// skips it.
func checkpointWorkload(t *testing.T, seed uint64, blobs int) *Store {
	t.Helper()
	s := New(cluster.New(cluster.Config{Nodes: 5, Seed: seed}), Config{ChunkSize: 256, Replication: 3})
	ctx := storage.NewContext()
	rng := sim.NewRNG(seed)
	data := make([]byte, 4*256)
	for i := 0; i < blobs; i++ {
		key := fmt.Sprintf("ckpt/%05d", i)
		if err := s.CreateBlob(ctx, key); err != nil {
			t.Fatal(err)
		}
		p := data[:1+rng.Intn(len(data))]
		rng.Fill(p)
		if _, err := s.WriteBlob(ctx, key, 0, p); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < blobs/4; i++ {
		key := fmt.Sprintf("ckpt/%05d", rng.Intn(blobs))
		switch i % 4 {
		case 0:
			if err := s.TruncateBlob(ctx, key, int64(rng.Intn(300))); err != nil && !errors.Is(err, storage.ErrNotFound) {
				t.Fatal(err)
			}
		case 1:
			if err := s.DeleteBlob(ctx, key); err != nil && !errors.Is(err, storage.ErrNotFound) {
				t.Fatal(err)
			}
		default:
			p := data[:1+rng.Intn(300)]
			rng.Fill(p)
			if _, err := s.WriteBlob(ctx, key, int64(rng.Intn(200)), p); err != nil && !errors.Is(err, storage.ErrNotFound) {
				t.Fatal(err)
			}
		}
	}
	s.SetDown(4, true)
	for i := 0; i < blobs/4; i++ {
		key := fmt.Sprintf("ckpt/%05d", rng.Intn(blobs))
		p := data[:1+rng.Intn(len(data))]
		rng.Fill(p)
		if s.descOwners(key)[0] == 4 {
			continue // a blob whose descriptor primary is down takes no writes
		}
		if _, err := s.WriteBlob(ctx, key, 0, p); err != nil && !errors.Is(err, storage.ErrNotFound) {
			t.Fatal(err)
		}
	}
	if s.RepairPending() == 0 {
		t.Fatal("workload left no repair debt to checkpoint")
	}
	return s
}

// TestCheckpointDeterministic: two stores built from one seed and driven
// through one history must write byte-identical compacted logs on every
// lane, however the pool schedules the checkpoint's lane jobs. Each lane's
// order keys come from the key range its record count fixes, not from
// whichever lane job reaches the shared counter first.
func TestCheckpointDeterministic(t *testing.T) {
	for rep := 0; rep < 20; rep++ {
		seed := uint64(100 + rep)
		a, b := checkpointWorkload(t, seed, 100), checkpointWorkload(t, seed, 100)
		a.CheckpointAll()
		b.CheckpointAll()
		la, lb := captureAllLanes(a), captureAllLanes(b)
		// Node 4 is down and keeps its uncompacted log, whose keys follow
		// the workload's own fan-out scheduling.
		for node := 0; node < 4; node++ {
			for lane := range la[node] {
				if !bytes.Equal(la[node][lane], lb[node][lane]) {
					t.Fatalf("seed %d: node %d lane %d differs between two runs (%d vs %d bytes)",
						seed, node, lane, len(la[node][lane]), len(lb[node][lane]))
				}
			}
		}
	}
}

// installBlobs puts n one-chunk blobs, and repair debt on every tenth
// chunk, straight into the servers' tables — the in-memory state a
// checkpoint snapshots — without the cost of writing them through the
// store.
func installBlobs(s *Store, n int) {
	data := []byte("steady-chunk")
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("steady/%06d", i)
		for _, o := range s.descOwners(key) {
			s.servers[o].blobs[key] = &descriptor{size: int64(len(data))}
		}
		id := chunkID{key, 0}
		h := id.ringHash()
		for _, o := range s.ownersForHash(h) {
			sv := s.servers[o]
			sv.setChunk(h, id, data, 1)
			if i%10 == 0 {
				st := sv.stripe(h)
				st.mu.Lock()
				sv.setDebtLocked(st, id, 1)
				st.mu.Unlock()
			}
		}
	}
}

// TestCheckpointSteadyAllocationFree: once a store has been checkpointed,
// a further checkpoint of the same state reuses the record lists, header
// staging and log slabs of the previous one. What is left is a fixed
// handful of allocations for each server's two pool stages (the job and
// its closure), the same at 2k as at 20k blobs.
func TestCheckpointSteadyAllocationFree(t *testing.T) {
	const bound = 4 * 5 // five servers
	var counts []float64
	for _, blobs := range []int{2000, 20000} {
		s := New(cluster.New(cluster.Config{Nodes: 5, Seed: 7}), Config{ChunkSize: 256, Replication: 3})
		installBlobs(s, blobs)
		s.CheckpointAll()
		allocs := testing.AllocsPerRun(2, s.CheckpointAll)
		t.Logf("%d blobs: %.1f allocations per steady CheckpointAll", blobs, allocs)
		if allocs > bound {
			t.Fatalf("%d blobs: steady CheckpointAll made %.1f allocations, want at most %d", blobs, allocs, bound)
		}
		counts = append(counts, allocs)
	}
	if counts[0] != counts[1] {
		t.Fatalf("steady CheckpointAll allocations grow with the store: %.1f at 2k blobs, %.1f at 20k", counts[0], counts[1])
	}
}

// TestCheckInvariantsReportsViolations injects each kind of violation
// CheckInvariants looks for into an otherwise consistent store and pins
// the exact message it reports.
func TestCheckInvariantsReportsViolations(t *testing.T) {
	const key = "inv/blob"
	build := func(t *testing.T) *Store {
		s := New(cluster.New(cluster.Config{Nodes: 5, Seed: 3}), Config{ChunkSize: 64, Replication: 3, InlineFanout: true})
		ctx := storage.NewContext()
		if err := s.CreateBlob(ctx, key); err != nil {
			t.Fatal(err)
		}
		if _, err := s.WriteBlob(ctx, key, 0, bytes.Repeat([]byte("x"), 100)); err != nil {
			t.Fatal(err)
		}
		if msg := s.CheckInvariants(); msg != "" {
			t.Fatalf("clean store: %s", msg)
		}
		return s
	}
	chunk := chunkID{key, 1}
	cases := []struct {
		name   string
		inject func(s *Store) string // returns the expected message
	}{
		{"descriptor missing", func(s *Store) string {
			o := s.descOwners(key)[1]
			rs := s.servers[o]
			delete(rs.blobs, key)
			return fmt.Sprintf("descriptor %q missing on replica node %d", key, o)
		}},
		{"size mismatch", func(s *Store) string {
			owners := s.descOwners(key)
			s.servers[owners[2]].blobs[key] = &descriptor{size: 7}
			return fmt.Sprintf("descriptor %q size mismatch: primary 100, replica node %d has 7", key, owners[2])
		}},
		{"chunk beyond size", func(s *Store) string {
			extra := chunkID{key, 5}
			h := extra.ringHash()
			s.servers[s.ownersForHash(h)[0]].setChunk(h, extra, []byte("stray"), 1)
			return fmt.Sprintf("chunk 5 of %q lies beyond blob size 100", key)
		}},
		{"version diverges", func(s *Store) string {
			h := chunk.ringHash()
			owners := s.ownersForHash(h)
			data, ver, _ := s.servers[owners[1]].copyChunk(h, chunk)
			s.servers[owners[1]].setChunk(h, chunk, data, ver+1)
			return fmt.Sprintf("chunk 1 of %q version diverges between node %d (v%d) and node %d (v%d)",
				key, owners[0], ver, owners[1], ver+1)
		}},
		{"bytes diverge", func(s *Store) string {
			h := chunk.ringHash()
			owners := s.ownersForHash(h)
			data, ver, _ := s.servers[owners[2]].copyChunk(h, chunk)
			data[0] ^= 0xff
			s.servers[owners[2]].setChunk(h, chunk, data, ver)
			return fmt.Sprintf("chunk 1 of %q diverges between node %d and node %d", key, owners[0], owners[2])
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := build(t)
			want := tc.inject(s)
			if got := s.CheckInvariants(); got != want {
				t.Fatalf("CheckInvariants() = %q\nwant              %q", got, want)
			}
		})
	}
}
