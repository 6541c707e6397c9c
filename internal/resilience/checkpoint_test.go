package resilience_test

import (
	"slices"
	"strings"
	"testing"

	"perfscale/internal/resilience"
	"perfscale/internal/sim"
)

// stencilInit and stencilStep define the demo kernel: a 1D three-point
// relaxation over a ring, state' = 0.5·self + 0.25·left + 0.25·right,
// with a compute charge so the virtual clock advances and crash times land
// mid-run.
func stencilInit(r *sim.Rank) []float64 {
	state := make([]float64, 8)
	for i := range state {
		state[i] = float64(r.ID()*len(state) + i)
	}
	return state
}

func stencilStep(r *sim.Rank, w *sim.Comm, iter int, state []float64) []float64 {
	r.Compute(1e6)              // 1 ms of virtual compute per iteration at γt = 1e-9
	left := w.Shift(state, 1)   // from the left neighbor
	right := w.Shift(state, -1) // from the right neighbor
	out := make([]float64, len(state))
	for i := range out {
		out[i] = 0.5*state[i] + 0.25*left[i] + 0.25*right[i]
	}
	return out
}

func TestCheckpointFaultFreeMatchesPlainRun(t *testing.T) {
	const p, iters, every = 4, 10, 3
	res, err := resilience.RunCheckpointed(testCost(), p, iters, every, stencilInit, stencilStep)
	if err != nil {
		t.Fatal(err)
	}
	// The same kernel run without the checkpoint machinery.
	plain := make([][]float64, p)
	if _, err := sim.Run(p, testCost(), func(r *sim.Rank) error {
		w := r.World()
		state := stencilInit(r)
		for i := 0; i < iters; i++ {
			state = stencilStep(r, w, i, state)
		}
		plain[r.ID()] = state
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for id := range plain {
		for i, v := range plain[id] {
			if res.States[id][i] != v {
				t.Fatalf("rank %d word %d: checkpointed %g != plain %g", id, i, res.States[id][i], v)
			}
		}
	}
}

func TestCheckpointRecoversFromCrash(t *testing.T) {
	const p, iters, every = 4, 10, 3
	base, err := resilience.RunCheckpointed(testCost(), p, iters, every, stencilInit, stencilStep)
	if err != nil {
		t.Fatal(err)
	}
	cost := testCost()
	cost.Faults = &sim.FaultPlan{
		Crashes:    map[int]float64{2: 0.55 * base.Sim.Time()},
		Respawn:    true,
		RebootTime: 0.05 * base.Sim.Time(),
	}
	res, err := resilience.RunCheckpointed(cost, p, iters, every, stencilInit, stencilStep)
	if err != nil {
		t.Fatal(err)
	}
	// Rollback re-executes the identical arithmetic, so the final states
	// must match the fault-free run bit for bit.
	for id := range base.States {
		for i, v := range base.States[id] {
			if res.States[id][i] != v {
				t.Fatalf("rank %d word %d: recovered %g != fault-free %g", id, i, res.States[id][i], v)
			}
		}
	}
	// The rollback re-execution is visible in the counters.
	if res.Sim.TotalStats().Flops <= base.Sim.TotalStats().Flops {
		t.Errorf("re-executed iterations must cost flops: %g <= %g",
			res.Sim.TotalStats().Flops, base.Sim.TotalStats().Flops)
	}
	if res.Sim.Time() <= base.Sim.Time() {
		t.Errorf("recovery should cost time: %g <= %g", res.Sim.Time(), base.Sim.Time())
	}
}

// TestCheckpointCrashSweep crashes every rank of a p=8 ring at nineteen
// points of the fault-free runtime, with and without a reboot stall, for
// two checkpoint intervals. Every run must end in the fault-free states
// bit for bit. The checkpoint endpoint shares its ring pairs with the
// kernel's raw shifts, so a finite RTO would fail here: a rebooting peer
// answers late, the ack wait expires, and the retransmitted duplicate is
// read by the next shift.
func TestCheckpointCrashSweep(t *testing.T) {
	const p, iters = 8, 10
	for _, every := range []int{1, 4} {
		base, err := resilience.RunCheckpointed(testCost(), p, iters, every, stencilInit, stencilStep)
		if err != nil {
			t.Fatal(err)
		}
		T := base.Sim.Time()
		for _, reboot := range []float64{0, 0.05 * T} {
			for rank := 0; rank < p; rank++ {
				for k := 1; k <= 19; k++ {
					cost := testCost()
					cost.Faults = &sim.FaultPlan{
						Crashes:    map[int]float64{rank: float64(k) / 20 * T},
						Respawn:    true,
						RebootTime: reboot,
					}
					res, err := resilience.RunCheckpointed(cost, p, iters, every, stencilInit, stencilStep)
					if err != nil {
						t.Errorf("every %d, reboot %g, crash rank %d at %d/20 T: %v", every, reboot, rank, k, err)
						continue
					}
					if !slices.EqualFunc(res.States, base.States, slices.Equal[[]float64]) {
						t.Errorf("every %d, reboot %g, crash rank %d at %d/20 T: states differ from the fault-free run",
							every, reboot, rank, k)
					}
				}
			}
		}
	}
}

func TestCheckpointUnrecoverableBuddyPair(t *testing.T) {
	const p, iters, every = 4, 10, 3
	base, err := resilience.RunCheckpointed(testCost(), p, iters, every, stencilInit, stencilStep)
	if err != nil {
		t.Fatal(err)
	}
	// Rank 1 and its buddy rank 2 die in the same round: both copies of
	// rank 1's snapshot are gone.
	when := 0.5 * base.Sim.Time()
	cost := testCost()
	cost.Faults = &sim.FaultPlan{
		Crashes: map[int]float64{1: when, 2: when},
		Respawn: true,
	}
	_, err = resilience.RunCheckpointed(cost, p, iters, every, stencilInit, stencilStep)
	if err == nil || !strings.Contains(err.Error(), "unrecoverable") {
		t.Errorf("adjacent buddy crash must be unrecoverable, got %v", err)
	}
}

func TestCheckpointValidation(t *testing.T) {
	if _, err := resilience.RunCheckpointed(testCost(), 0, 5, 1, stencilInit, stencilStep); err == nil {
		t.Error("p = 0 must be rejected")
	}
	if _, err := resilience.RunCheckpointed(testCost(), 2, 5, 0, stencilInit, stencilStep); err == nil {
		t.Error("every = 0 must be rejected")
	}
	hard := testCost()
	hard.Faults = &sim.FaultPlan{Crashes: map[int]float64{0: 1}}
	if _, err := resilience.RunCheckpointed(hard, 2, 5, 1, stencilInit, stencilStep); err == nil {
		t.Error("crashes without Respawn must be rejected")
	}
}
