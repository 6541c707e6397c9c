package resilience

import (
	"fmt"

	"perfscale/internal/sim"
)

// CheckpointResult bundles the final per-rank states and the simulation
// statistics of a checkpointed run, checkpoint and rollback costs included.
type CheckpointResult struct {
	States [][]float64
	Sim    *sim.Result
}

// RunCheckpointed executes an iterative SPMD kernel under in-memory buddy
// checkpointing with coordinated rollback. init produces rank r's initial
// state; step advances it by one iteration (it may communicate through w
// and must be deterministic given (iter, state), since rollback re-executes
// it).
//
// Every `every` iterations each rank snapshots its state and ships the
// snapshot to its buddy, rank (id+1) mod p, over a checksummed ARQ
// endpoint (so a corrupted checkpoint transfer is retransmitted, never
// silently kept). The endpoint shares the ring pairs with the kernel's raw
// traffic, so it runs with an infinite RTO (see ARQConfig.RTO). After
// every step a world all-reduce of a p-word crash bitmap detects
// casualties; on detection the buddies re-seed the crashed ranks'
// snapshots and every rank — crashed or not — rolls back to the last
// checkpoint and re-executes, which keeps the global state consistent. The
// repeated iterations, snapshot traffic and detection all-reduces flow
// through the normal Stats, so the energy price of the checkpoint interval
// is measurable with core.PriceSim.
//
// A round is unrecoverable when a rank and its buddy crash together (the
// only copies of the rank's snapshot die at once) and always when p = 1.
func RunCheckpointed(cost sim.Cost, p, iters, every int,
	init func(r *sim.Rank) []float64,
	step func(r *sim.Rank, w *sim.Comm, iter int, state []float64) []float64,
) (*CheckpointResult, error) {
	if p <= 0 {
		return nil, fmt.Errorf("resilience: need at least one rank, got %d", p)
	}
	if iters < 0 || every <= 0 {
		return nil, fmt.Errorf("resilience: need iters >= 0 and every > 0, got %d and %d", iters, every)
	}
	if fp := cost.Faults; fp != nil && len(fp.Crashes) > 0 && !fp.Respawn {
		return nil, fmt.Errorf("resilience: checkpoint recovery needs FaultPlan.Respawn")
	}
	finals := make([][]float64, p)
	res, err := sim.Run(p, cost, func(r *sim.Rank) error {
		w := r.World()
		arq := NewARQ(r, evidenceOnly)
		id := r.ID()
		buddy := (id + 1) % p
		ward := (id - 1 + p) % p

		state := init(r)
		myCkpt := cloneState(state)
		ckptIter := 0
		var wardCkpt []float64

		// exchange ships myCkpt around the ring: rank rnd sends while rank
		// rnd+1 receives, serialized so the blocking ack protocol never
		// forms a cycle. O(p) latency per checkpoint — simple and correct.
		exchange := func() error {
			if p == 1 {
				return nil // a lone rank is its own buddy
			}
			for rnd := 0; rnd < p; rnd++ {
				if id == rnd {
					if err := arq.Send(buddy, myCkpt); err != nil {
						return err
					}
				}
				if id == (rnd+1)%p {
					var err error
					if wardCkpt, err = arq.Recv(ward); err != nil {
						return err
					}
				}
			}
			return nil
		}
		if err := exchange(); err != nil {
			return err
		}

		for i := 0; i < iters; {
			state = step(r, w, i, state)
			i++
			bitmap, err := crashBitmap(arq)
			if err != nil {
				return err
			}
			var crashed []int
			for cid, v := range bitmap {
				if v > 0 {
					crashed = append(crashed, cid)
				}
			}
			if len(crashed) == 0 {
				if i%every == 0 && i < iters {
					myCkpt = cloneState(state)
					ckptIter = i
					if err := exchange(); err != nil {
						return err
					}
				}
				continue
			}
			// Everything the casualty held — live state and both snapshot
			// copies — is lost.
			if bitmap[id] > 0 {
				scrub(state)
				scrub(myCkpt)
				scrub(wardCkpt)
			}
			// Phase 1: each casualty's buddy re-seeds its snapshot. A rank
			// that crashed together with its buddy is unrecoverable: both
			// copies of its snapshot died in the same round.
			for _, d := range crashed {
				db := (d + 1) % p
				if p == 1 || bitmap[db] > 0 {
					return fmt.Errorf("resilience: rank %d unrecoverable: its buddy rank %d crashed in the same round", d, db)
				}
				if id == db {
					err = arq.Send(d, wardCkpt)
				}
				if id == d {
					myCkpt, err = arq.Recv(db)
				}
				if err != nil {
					return err
				}
			}
			// Phase 2: re-seed each casualty's ward snapshot from the ward's
			// own copy (valid by now: phase 1 repaired crashed wards first).
			for _, d := range crashed {
				dw := (d - 1 + p) % p
				if id == dw && dw != d {
					err = arq.Send(d, myCkpt)
				}
				if id == d && dw != d {
					wardCkpt, err = arq.Recv(dw)
				}
				if err != nil {
					return err
				}
			}
			// Coordinated rollback: every rank returns to the checkpointed
			// iteration so the re-execution sees a globally consistent state.
			state = cloneState(myCkpt)
			i = ckptIter
		}
		finals[id] = state
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &CheckpointResult{States: finals, Sim: res}, nil
}

func cloneState(xs []float64) []float64 {
	cp := make([]float64, len(xs))
	copy(cp, xs)
	return cp
}
