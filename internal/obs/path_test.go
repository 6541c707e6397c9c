package obs_test

import (
	"math"
	"testing"

	"perfscale/internal/core"
	"perfscale/internal/obs"
	"perfscale/internal/sim"
)

// capture runs fn on p ranks under cost with a Collector subscribed.
func capture(t *testing.T, p int, cost sim.Cost, fn func(*sim.Rank) error) (*sim.Result, *obs.Collector) {
	t.Helper()
	col := obs.NewCollector(p)
	cost.Observers = append(cost.Observers, col)
	res, err := sim.Run(p, cost, fn)
	if err != nil {
		t.Fatal(err)
	}
	return res, col
}

// shiftProgram is a messy enough dependency graph: skewed compute, three
// ring shifts and an all-reduce.
func shiftProgram(r *sim.Rank) error {
	w := r.World()
	r.Compute(float64(100 * (r.ID() + 1)))
	data := make([]float64, 8)
	for s := 0; s < 3; s++ {
		data = w.Shift(data, 1)
		r.Compute(50)
	}
	w.AllReduce(data, sim.OpSum)
	return nil
}

func TestCriticalPathChain(t *testing.T) {
	// Rank 0 computes 100, sends to 1; rank 1 computes 50 (overlapped),
	// receives, computes 20. Critical path: compute(100)@0 → send@0 →
	// compute(20)@1; rank 1's first 50 is off-path.
	res, col := capture(t, 2, sim.Cost{GammaT: 1, AlphaT: 5}, func(r *sim.Rank) error {
		if r.ID() == 0 {
			r.Compute(100)
			r.Send(1, []float64{1})
		} else {
			r.Compute(50)
			r.Recv(0)
			r.Compute(20)
		}
		return nil
	})
	path := obs.CriticalPath(col)
	if len(path) != 3 {
		t.Fatalf("path length %d: %+v", len(path), path)
	}
	if path[0].Kind != sim.SegCompute || path[0].Duration() != 100 {
		t.Errorf("path[0]: %+v", path[0])
	}
	if path[1].Kind != sim.SegSend || path[1].Duration() != 5 {
		t.Errorf("path[1]: %+v", path[1])
	}
	if path[2].Kind != sim.SegCompute || path[2].Duration() != 20 {
		t.Errorf("path[2]: %+v", path[2])
	}
	// The path tiles [0, T].
	bd := obs.PathBreakdown(path)
	total := bd[sim.SegCompute] + bd[sim.SegSend] + bd[sim.SegWait] + bd[sim.SegRecv]
	if math.Abs(total-res.Time()) > 1e-12 {
		t.Errorf("path total %g vs runtime %g", total, res.Time())
	}
}

func TestCriticalPathTilesTime(t *testing.T) {
	// A messier program: the path must still tile [0, T] exactly, and
	// following the sender at each wait removes idle time from the path.
	res, col := capture(t, 6, sim.Cost{GammaT: 1e-3, AlphaT: 0.5, BetaT: 0.01}, shiftProgram)
	path := assertPathTiles(t, res, col)
	for i, s := range path {
		if s.Kind == sim.SegWait && i != 0 {
			t.Errorf("interior wait on critical path: %+v", s)
		}
	}
}

// CriticalPath must tile [0, T] exactly under ChargeReceiver (receive
// segments join the path).
func TestCriticalPathChargeReceiverTilesTime(t *testing.T) {
	cost := sim.Cost{GammaT: 1e-3, AlphaT: 0.5, BetaT: 0.01, ChargeReceiver: true}
	res, col := capture(t, 6, cost, shiftProgram)
	assertPathTiles(t, res, col)
}

// CriticalPath must also survive respawn-crash reboot stalls: the injected
// SegWait has no releasing sender (peer −1) and stays on the path as a
// stall instead of being followed off the end of the rank array.
func TestCriticalPathRespawnRebootStall(t *testing.T) {
	plan := &sim.FaultPlan{Crashes: map[int]float64{1: 0.01}, Respawn: true, RebootTime: 3}
	cost := sim.Cost{GammaT: 1e-3, AlphaT: 0.1, BetaT: 0.01, Faults: plan}
	res, col := capture(t, 2, cost, func(r *sim.Rank) error {
		r.Compute(100)
		other := 1 - r.ID()
		r.Send(other, make([]float64, 4))
		r.Recv(other)
		r.Compute(100)
		return nil
	})
	path := assertPathTiles(t, res, col)
	stall := false
	for _, seg := range path {
		if seg.Kind == sim.SegWait && seg.Peer == -1 && seg.Duration() == 3 {
			stall = true
		}
	}
	if !stall {
		t.Errorf("reboot stall missing from path: %+v", path)
	}
}

// Zero-length segments — Compute(0), and sends under zero αt/βt — reach
// the bus but occupy no time. The timeline analyses must skip them: the
// critical-path walk must terminate and tile [0, T], and the power profile
// must not spread a segment's energy over zero seconds.
func TestCriticalPathSkipsZeroLengthSegments(t *testing.T) {
	m := powerMachine()
	cost := sim.Cost{GammaT: m.GammaT, AlphaT: m.AlphaT}
	res, col := capture(t, 3, cost, func(r *sim.Rank) error {
		r.Compute(0)
		if r.ID() == 0 {
			r.Compute(10)
			r.Compute(0)
			r.Send(1, []float64{1})
			r.Compute(0)
		} else {
			r.Recv(r.ID() - 1)
			r.Compute(0)
			r.Compute(5)
			r.Compute(0)
			if r.ID() == 1 {
				r.Send(2, []float64{2})
			}
		}
		r.Compute(0)
		return nil
	})
	zero := 0
	for rank := 0; rank < col.P(); rank++ {
		for _, e := range col.Rank(rank) {
			if e.Kind == obs.KindCompute && e.Duration() == 0 {
				zero++
			}
		}
	}
	if zero == 0 {
		t.Fatal("the capture holds no zero-length segments; the test exercises nothing")
	}
	path := assertPathTiles(t, res, col)
	for _, s := range path {
		if s.Duration() <= 0 {
			t.Errorf("zero-length segment on the path: %+v", s)
		}
	}
	prof, err := obs.Profile(m, res, col, 16)
	if err != nil {
		t.Fatal(err)
	}
	if want := core.PriceSim(m, res).Total(); !near(prof.TotalEnergy, want, 1e-9) {
		t.Errorf("profile integral %g vs PriceSim %g", prof.TotalEnergy, want)
	}
}

func TestCriticalPathEmptyTrace(t *testing.T) {
	if got := obs.CriticalPath(obs.NewCollector(3)); got != nil {
		t.Errorf("empty capture path: %+v", got)
	}
}

func TestUtilization(t *testing.T) {
	res, col := capture(t, 2, sim.Cost{GammaT: 1, AlphaT: 1}, func(r *sim.Rank) error {
		if r.ID() == 0 {
			r.Compute(99)
			r.Send(1, nil) // +1 => T=100
		} else {
			r.Recv(0) // waits 100, does nothing else
		}
		return nil
	})
	u := obs.Utilization(col, res.Time())
	if u[0] != 1 {
		t.Errorf("rank 0 utilization %g, want 1", u[0])
	}
	if u[1] != 0 {
		t.Errorf("rank 1 utilization %g, want 0", u[1])
	}
	if z := obs.Utilization(col, 0); z[0] != 0 {
		t.Error("zero total time should give zero utilization")
	}
}

// assertPathTiles checks the critical path covers [0, T] contiguously and
// returns it.
func assertPathTiles(t *testing.T, res *sim.Result, col *obs.Collector) []sim.Segment {
	t.Helper()
	path := obs.CriticalPath(col)
	if len(path) == 0 {
		t.Fatal("empty critical path")
	}
	total := 0.0
	for _, s := range path {
		total += s.Duration()
	}
	if T := res.Time(); math.Abs(total-T) > 1e-9*T {
		t.Errorf("path covers %g of %g", total, T)
	}
	for i := 1; i < len(path); i++ {
		if math.Abs(path[i].Start-path[i-1].End) > 1e-9 {
			t.Fatalf("path gap between %+v and %+v", path[i-1], path[i])
		}
	}
	return path
}
