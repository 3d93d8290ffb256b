// Checkpoint/restart on blob storage — the BlobCR use case the paper's
// related-work section cites ([49] Nicolae & Cappello): an MPI application
// periodically checkpoints every rank's state into one blob per epoch
// through internal/blobcr; after a simulated failure, the survivors locate
// the newest complete checkpoint with a namespace scan and restart from it.
//
// Run with: go run ./examples/checkpoint
package main

import (
	"bytes"
	"fmt"
	"log"

	"repro/internal/blobcr"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/sim"
)

const (
	ranks     = 8
	stateSize = 256 << 10 // per-rank state
	epochs    = 5
)

func main() {
	platform := core.New(core.Options{Nodes: 8, Seed: 7})
	m, err := blobcr.NewManager(platform.Blob(), blobcr.Options{Ranks: ranks, SlabSize: stateSize})
	if err != nil {
		log.Fatal(err)
	}

	// --- Phase 1: run the application, checkpointing each epoch. Every
	// rank writes its slab of the epoch blob — random blob writes, exactly
	// the capability HDFS-style write-once storage lacks. ---
	errs := mpi.Run(ranks, sim.DefaultCostModel(), func(r *mpi.Rank) error {
		rs, err := m.NewRankState(r)
		if err != nil {
			return err
		}
		state := make([]byte, stateSize)
		for epoch := 0; epoch < epochs; epoch++ {
			compute(state, epoch, r.ID)
			if _, err := rs.Checkpoint(epoch, state); err != nil {
				return err
			}
		}
		return nil
	})
	if err := mpi.FirstError(errs); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("checkpointed %d epochs x %d ranks (%d KB each)\n", epochs, ranks, stateSize>>10)

	// --- Phase 2: the cluster "fails"; find the newest checkpoint. ---
	ctx := platform.NewContext()
	latest, key, err := m.LatestComplete(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("restart point: %s\n", key)

	// --- Phase 3: restart — every rank reloads and verifies its slab. ---
	errs = mpi.Run(ranks, sim.DefaultCostModel(), func(r *mpi.Rank) error {
		rs, err := m.NewRankState(r)
		if err != nil {
			return err
		}
		state, err := rs.Restore(latest)
		if err != nil {
			return err
		}
		want := make([]byte, stateSize)
		for epoch := 0; epoch <= latest; epoch++ {
			compute(want, epoch, r.ID)
		}
		if !bytes.Equal(state, want) {
			return fmt.Errorf("rank %d: restored state diverges", r.ID)
		}
		return nil
	})
	if err := mpi.FirstError(errs); err != nil {
		log.Fatal(err)
	}
	fmt.Println("all ranks restored and verified their state")

	// Housekeeping: retention — drop all but the latest checkpoint.
	dropped, err := m.Retain(ctx, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("retention: dropped %d old checkpoints, kept %s\n", dropped, key)
}

// compute advances a rank's state deterministically, so restored state can
// be verified bit-for-bit.
func compute(state []byte, epoch, rank int) {
	rng := sim.NewRNG(uint64(epoch)<<16 | uint64(rank) | 1)
	for i := range state {
		state[i] ^= byte(rng.Uint64())
	}
}
