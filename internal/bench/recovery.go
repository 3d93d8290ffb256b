package bench

import (
	"fmt"
	"testing"

	"repro/internal/blob"
	"repro/internal/cluster"
	"repro/internal/storage"
)

// RecoveryFixture is the fixture behind BenchmarkRecover and the benchsuite
// `recovery` experiment: a 9-node store with 64 KiB chunks and 3-way
// replication whose write-ahead logs hold a cold, never-checkpointed
// history of `blobs` 256 KiB blobs (each a 4-chunk 2PC write). One
// iteration crashes the fullest server and replays its merged lanes back
// into volatile state — the recovery path whose lane-decode stage the
// parallel pipeline (blob recoverfeed.go) parallelizes, measured against
// the Config.SerialRecovery oracle.
type RecoveryFixture struct {
	store *blob.Store
	node  cluster.NodeID
	bytes int64 // WAL bytes on the measured node
}

// NewRecoveryFixture builds the cold store. lanes selects Config.WALLanes
// (0 = store default); serial selects the single-threaded decode oracle.
func NewRecoveryFixture(lanes, blobs int, serial bool) (*RecoveryFixture, error) {
	st := blob.New(cluster.New(cluster.Config{Nodes: 9, Seed: 1}),
		blob.Config{ChunkSize: 64 << 10, Replication: 3, WALLanes: lanes, SerialRecovery: serial})
	ctx := storage.NewContext()
	buf := make([]byte, 256<<10)
	for i := range buf {
		buf[i] = byte(i)
	}
	for i := 0; i < blobs; i++ {
		key := fmt.Sprintf("cold-%d", i)
		if err := st.CreateBlob(ctx, key); err != nil {
			return nil, err
		}
		if _, err := st.WriteBlob(ctx, key, 0, buf); err != nil {
			return nil, err
		}
	}
	// Measure the server carrying the most log: the worst-case recovery.
	f := &RecoveryFixture{store: st}
	for n := 0; n < 9; n++ {
		if sz := st.WALSize(cluster.NodeID(n)); sz > f.bytes {
			f.node, f.bytes = cluster.NodeID(n), sz
		}
	}
	if f.bytes == 0 {
		return nil, fmt.Errorf("bench: recovery fixture built an empty WAL")
	}
	return f, nil
}

// WALBytes is the log volume one Run decodes (the b.SetBytes datum, so
// MB/s reads as recovery throughput over the measured node's log).
func (f *RecoveryFixture) WALBytes() int64 { return f.bytes }

// Run performs one crash + recovery cycle of the measured node. The cycle
// is repeatable: recovery repairs nothing on clean media and rebuilds the
// same state from the same bytes every iteration.
func (f *RecoveryFixture) Run() error {
	f.store.Crash(f.node)
	return f.store.Recover(f.node)
}

// Drive is the standard benchmark body over a recovery fixture.
func (f *RecoveryFixture) Drive(b *testing.B) {
	b.SetBytes(f.WALBytes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// runRecovery runs the serial-vs-parallel recovery sweep across WAL lane
// counts and cold-store sizes (each blob adds ~768 KiB of replicated chunk
// log per cluster). Row names encode the parameters:
// BenchmarkRecover/<mode>/lanes=<n>/blobs=<m>.
func runRecovery() (Rows, error) {
	var rows Rows
	for _, blobs := range []int{8, 32} {
		for _, lanes := range []int{1, 4, 16} {
			for _, mode := range []struct {
				name   string
				serial bool
			}{{"serial", true}, {"parallel", false}} {
				f, err := NewRecoveryFixture(lanes, blobs, mode.serial)
				if err != nil {
					return nil, err
				}
				row, err := measure(fmt.Sprintf("BenchmarkRecover/%s/lanes=%d/blobs=%d", mode.name, lanes, blobs), 1, f.Drive)
				if err != nil {
					return nil, err
				}
				rows = append(rows, row)
			}
		}
	}
	return rows, nil
}
