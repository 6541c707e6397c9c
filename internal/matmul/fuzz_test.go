package matmul

import (
	"encoding/json"
	"fmt"
	"testing"

	"perfscale/internal/matrix"
	"perfscale/internal/sim"
)

// FuzzStepperFaultPlan decodes the input as a FaultPlan and, when Validate
// accepts it for p = 8, runs both 2.5D algorithms at q = 2, c = 2 as
// Steppers on one worker and on three, and as their closure oracles
// (oracle_test.go). No panic may escape, and every run must give the
// oracle's per-rank Stats and error text: the stackless host under any
// plan — a send's fates rolled once, its copies pushed across full-queue
// retries, crashes and failures raised inside Step — is the closure host.
func FuzzStepperFaultPlan(f *testing.F) {
	for _, seed := range []string{
		// The plan kinds TestSteppersMatchClosureOracle holds them to.
		`{}`,
		`{"Degraded":[{"Src":-1,"Dst":-1,"From":0.000003,"Until":0.00002,"AlphaFactor":3,"BetaFactor":2}]}`,
		`{"Seed":5,"Links":[{"Src":-1,"Dst":-1,"CorruptProb":0.5}]}`,
		`{"Seed":6,"Links":[{"Src":-1,"Dst":-1,"DupProb":0.5}]}`,
		`{"Crashes":{"5":0.000004},"Respawn":true,"RebootTime":0.000001}`,
		// A drop on a shift link, a duplicate with corrupted copies, and a
		// hard crash of a fiber's member 1.
		`{"Links":[{"Src":3,"Dst":2,"DropProb":1}]}`,
		`{"Seed":3,"Links":[{"Src":-1,"Dst":-1,"DupProb":1,"CorruptProb":0.5}]}`,
		`{"Crashes":{"5":0.000004}}`,
	} {
		f.Add([]byte(seed))
	}
	const q, c, n = 2, 2, 4
	a, b := randPair(n, 17)
	f.Fuzz(func(t *testing.T, data []byte) {
		var plan sim.FaultPlan
		if json.Unmarshal(data, &plan) != nil || plan.Validate(q*q*c) != nil {
			return
		}
		for _, alg := range []struct {
			name            string
			stepper, oracle func(sim.Cost, int, int, *matrix.Dense, *matrix.Dense) (*RunResult, error)
		}{
			{"TwoPointFiveD", stepped25D(false), twoPointFiveDClosure},
			{"TwoPointFiveDSUMMA", stepped25D(true), twoPointFiveDSUMMAClosure},
		} {
			want, wantErr := runFuzzPlan(t, alg.oracle, &plan, 1, q, c, a, b)
			for _, w := range []int{1, 3} {
				got, gotErr := runFuzzPlan(t, alg.stepper, &plan, w, q, c, a, b)
				if gotErr != wantErr {
					t.Fatalf("%s workers=%d: error text differs from the oracle's\n  stepper: %s\n  oracle:  %s", alg.name, w, gotErr, wantErr)
				}
				for i := range want {
					// Compared as text: an Inf − Inf in a pathological plan
					// gives NaN, which == would never match.
					if g, o := fmt.Sprintf("%+v", got[i]), fmt.Sprintf("%+v", want[i]); g != o {
						t.Fatalf("%s workers=%d: rank %d stats differ:\n  stepper: %s\n  oracle:  %s", alg.name, w, i, g, o)
					}
				}
			}
		}
	})
}

// runFuzzPlan runs one 2.5D program under plan on the given worker count
// and returns its per-rank Stats and error text ("" for success). A panic
// escaping the run fails the test.
func runFuzzPlan(t *testing.T, run func(sim.Cost, int, int, *matrix.Dense, *matrix.Dense) (*RunResult, error),
	plan *sim.FaultPlan, workers, q, c int, a, b *matrix.Dense) (stats []sim.Stats, errText string) {
	t.Helper()
	defer func() {
		if v := recover(); v != nil {
			t.Fatalf("panic escaped the run on %d worker(s): %v", workers, v)
		}
	}()
	cost := sim.Cost{GammaT: 1e-9, BetaT: 1e-8, AlphaT: 1e-6, Workers: workers, Faults: plan}
	res, err := run(cost, q, c, a, b)
	if err != nil {
		errText = err.Error()
	}
	return res.Sim.PerRank, errText
}
