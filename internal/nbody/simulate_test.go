package nbody

import (
	"math"
	"testing"
)

// spreadBodies returns bodies scattered over a 10-unit box: pairwise
// distances stay well above the softening length, so the dynamics are
// smooth and the serial and distributed integrators (which sum forces in
// different orders) stay numerically close over the test horizon.
func spreadBodies(n int, seed int64) Bodies {
	b := RandomBodies(n, seed)
	for i := 0; i < n; i++ {
		b[i*WordsPerBody] *= 10
		b[i*WordsPerBody+1] *= 10
		b[i*WordsPerBody+2] *= 10
	}
	return b
}

func TestDistributedSimulateMatchesSerial(t *testing.T) {
	// NewState takes ownership of the slice and StepSerial mutates in
	// place, so each integrator gets its own clone.
	base := NewState(spreadBodies(32, 50))
	serial := base.Clone()
	for step := 0; step < 5; step++ {
		StepSerial(serial, 1e-3)
	}
	dist, err := Simulate(zeroCost, 8, 2, base.Clone(), 5, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if d := MaxAbsDiff(dist.Final.Bodies, serial.Bodies); d > 1e-9 {
		t.Errorf("positions diverged: %g", d)
	}
	if d := MaxAbsDiff(dist.Final.Velocities, serial.Velocities); d > 1e-9 {
		t.Errorf("velocities diverged: %g", d)
	}
	// Two force evaluations per leapfrog step.
	if len(dist.Sims) != 10 {
		t.Errorf("expected 10 force evaluations, got %d", len(dist.Sims))
	}
	if dist.TotalSimTime() != 0 { // zero-cost clock: time stays 0
		t.Errorf("zero-cost total time %g", dist.TotalSimTime())
	}
}

func TestSimulateDoesNotMutateInput(t *testing.T) {
	bodies := RandomBodies(16, 51)
	st := NewState(bodies)
	orig := st.Clone()
	if _, err := Simulate(zeroCost, 4, 1, st, 3, 1e-3); err != nil {
		t.Fatal(err)
	}
	if d := MaxAbsDiff(st.Bodies, orig.Bodies); d != 0 {
		t.Error("Simulate must not mutate the caller's state")
	}
}

func TestLeapfrogEnergyDrift(t *testing.T) {
	// A symplectic integrator keeps the energy error bounded and small for
	// a modest horizon; a driftless check would be too strict for softened
	// gravity, so require < 2% relative drift over 50 small steps.
	bodies := spreadBodies(24, 52)
	st := NewState(bodies)
	e0 := st.Energy()
	res, err := Simulate(zeroCost, 4, 1, st, 50, 5e-4)
	if err != nil {
		t.Fatal(err)
	}
	e1 := res.Final.Energy()
	drift := math.Abs(e1-e0) / math.Abs(e0)
	if drift > 0.02 {
		t.Errorf("energy drift %.3f%% over 50 steps", 100*drift)
	}
}

func TestSimulateZeroSteps(t *testing.T) {
	bodies := RandomBodies(8, 53)
	st := NewState(bodies)
	res, err := Simulate(zeroCost, 4, 1, st, 0, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if d := MaxAbsDiff(res.Final.Bodies, st.Bodies); d != 0 {
		t.Error("zero steps should be identity")
	}
	if len(res.Sims) != 0 {
		t.Error("zero steps should not evaluate forces")
	}
}

func TestSimulateValidation(t *testing.T) {
	st := NewState(RandomBodies(8, 54))
	if _, err := Simulate(zeroCost, 4, 1, st, -1, 1e-3); err == nil {
		t.Error("negative steps should be rejected")
	}
	for _, pc := range [][2]int{{5, 2}, {0, 1}, {-1, 1}} {
		if _, err := Simulate(zeroCost, pc[0], pc[1], st, 1, 1e-3); err == nil {
			t.Errorf("invalid p=%d c=%d should propagate", pc[0], pc[1])
		}
	}
}

func TestDriftMovesAlongVelocity(t *testing.T) {
	st := NewState(Bodies{0, 0, 0, 1})
	st.Velocities = []float64{1, 2, 3}
	st.drift(0.5)
	if st.Bodies[0] != 0.5 || st.Bodies[1] != 1 || st.Bodies[2] != 1.5 {
		t.Errorf("drift wrong: %v", st.Bodies[:3])
	}
	if st.Bodies[3] != 1 {
		t.Error("mass must not move")
	}
}

func TestKick(t *testing.T) {
	st := NewState(Bodies{0, 0, 0, 1})
	st.kick([]float64{2, 4, 6}, 0.5)
	if st.Velocities[0] != 1 || st.Velocities[1] != 2 || st.Velocities[2] != 3 {
		t.Errorf("kick wrong: %v", st.Velocities)
	}
}

func TestTwoBodyOrbitSymmetry(t *testing.T) {
	// Equal masses, symmetric initial conditions: the center of mass must
	// stay put through a distributed simulation.
	bodies := Bodies{
		-0.5, 0, 0, 1,
		0.5, 0, 0, 1,
	}
	st := NewState(bodies)
	st.Velocities = []float64{0, -0.3, 0, 0, 0.3, 0}
	res, err := Simulate(zeroCost, 2, 1, st, 20, 1e-2)
	if err != nil {
		t.Fatal(err)
	}
	cx := res.Final.Bodies[0] + res.Final.Bodies[4]
	cy := res.Final.Bodies[1] + res.Final.Bodies[5]
	if math.Abs(cx) > 1e-9 || math.Abs(cy) > 1e-9 {
		t.Errorf("center of mass moved: (%g, %g)", cx, cy)
	}
}
