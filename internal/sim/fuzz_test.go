package sim

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// FuzzFaultPlan decodes the input as a FaultPlan and, when Validate accepts
// it for p = 8, runs one fixed faulted program on one worker and on three.
// No panic may escape Run, and the two runs must agree on every rank's
// Stats and on the error text. The row broadcasts are conducted under the
// plan like without one, so this checks the conductor's fates and failure
// propagation — a failure recorded by whichever member conducts, and
// raised by each failed member on its own stack — and the engine's pop
// order, which must show in neither.
func FuzzFaultPlan(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"Seed":7,"Crashes":{"3":0.000005},"Respawn":true,"RebootTime":0.0001}`,
		`{"Crashes":{"5":0.00001}}`,
		`{"Seed":9,"Links":[{"Src":-1,"Dst":-1,"DupProb":0.3,"CorruptProb":0.2}]}`,
		`{"Links":[{"Src":2,"Dst":3,"DropProb":1}]}`,
		`{"Degraded":[{"Src":-1,"Dst":4,"From":0.00001,"Until":0.0002,"AlphaFactor":3,"BetaFactor":10}]}`,
		// Inside round 0's row Bcast (root 0; tree 0→2, 0→1, 2→3): rank 2
		// crashes at its send to 3; link 0→2, which only that Bcast uses,
		// drops; or duplicates with independently corrupted copies.
		`{"Crashes":{"2":0.0000015}}`,
		`{"Links":[{"Src":0,"Dst":2,"DropProb":1}]}`,
		`{"Seed":3,"Links":[{"Src":0,"Dst":2,"DupProb":1,"CorruptProb":0.5}]}`,
		// The Bcast root crashes in the ring SendRecv, before it arrives.
		`{"Crashes":{"0":0.000001}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var plan FaultPlan
		if json.Unmarshal(data, &plan) != nil || plan.Validate(faultFuzzP) != nil {
			return
		}
		one, oneErr := runFaultFuzz(t, &plan, 1)
		three, threeErr := runFaultFuzz(t, &plan, 3)
		if oneErr != threeErr {
			t.Fatalf("error text differs:\n  1 worker:  %s\n  3 workers: %s", oneErr, threeErr)
		}
		for i := range one {
			// Compared as text: an Inf − Inf in a pathological plan gives
			// NaN, which == would never match.
			if a, b := fmt.Sprintf("%+v", one[i]), fmt.Sprintf("%+v", three[i]); a != b {
				t.Fatalf("rank %d stats differ:\n  1 worker:  %s\n  3 workers: %s", i, a, b)
			}
		}
	})
}

const faultFuzzP = 8

// runFaultFuzz runs the fuzz program under plan on the given worker count
// and returns the per-rank Stats and the error text ("" for success). A
// panic escaping Run fails the test.
func runFaultFuzz(t *testing.T, plan *FaultPlan, workers int) (stats []Stats, errText string) {
	t.Helper()
	defer func() {
		if v := recover(); v != nil {
			t.Fatalf("panic escaped Run on %d worker(s): %v", workers, v)
		}
	}()
	cost := Cost{GammaT: 1e-9, BetaT: 1e-8, AlphaT: 1e-6, Workers: workers, Faults: plan}
	res, err := Run(faultFuzzP, cost, faultFuzzProgram)
	if err != nil {
		errText = err.Error()
	}
	return res.PerRank, errText
}

// faultFuzzProgram is four rounds of a ring SendRecv followed by a
// broadcast along each row of a 2×4 grid, rooted at a different column
// every round.
func faultFuzzProgram(r *Rank) error {
	g := Grid2D{Rows: 2, Cols: faultFuzzP / 2}
	row, err := g.RowComm(r)
	if err != nil {
		return err
	}
	next, prev := (r.ID()+1)%faultFuzzP, (r.ID()+faultFuzzP-1)%faultFuzzP
	buf := []float64{float64(r.ID()), 1, 2}
	for round := 0; round < 4; round++ {
		buf = r.SendRecv(next, buf, prev)
		r.Compute(100)
		buf = row.Bcast(round%g.Cols, buf)
	}
	return nil
}

// TestFaultFuzzCrashBeforeArrival pins FuzzFaultPlan's seed in which rank 2
// crashes inside round 0's row Bcast and so never arrives at round 1's:
// ranks 0 and 1, which do, name rank 2's crash rather than a deadlock, on
// one worker and on three.
func TestFaultFuzzCrashBeforeArrival(t *testing.T) {
	const cause = "which crashed (root cause: sim: rank 2 crashed at injected fault (t=1.5e-06))"
	plan := &FaultPlan{Crashes: map[int]float64{2: 0.0000015}}
	for _, w := range []int{1, 3} {
		_, got := runFaultFuzz(t, plan, w)
		lines := strings.Split(got, "\n")
		for id, want := range map[int]string{
			0: "rank 0: sim: rank 0 panicked: sim: rank 0 receiving from rank 2, " + cause,
			1: "rank 1: sim: rank 1 panicked: sim: rank 1 receiving from rank 2, " + cause,
		} {
			if len(lines) != faultFuzzP || lines[id] != want {
				t.Fatalf("workers=%d: rank %d's verdict moved\n  got:  %s\n  want: %s", w, id, got, want)
			}
		}
	}
}
