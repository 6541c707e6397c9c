package conformance

import (
	"fmt"

	"perfscale/internal/matmul"
	"perfscale/internal/matrix"
	"perfscale/internal/sim"
)

// The payload-free family holds phantom-operand runs — what /simulate and
// the scaling curves execute — to the numeric runs they stand in for. A
// phantom (sim.Phantom) has a length and no values: the runtime prices it by
// its length and charges every flop, but copies, multiplies and combines
// nothing, so a phantom run's counters are worth reporting only if they are
// the numeric run's bit for bit. These runs are checked against the numeric
// run's counters, not against the serial product, which they do not have.
// For each matmul algorithm the phantom path serves, at every point of its
// quick grid (at every level: the full grid's p = 512 observer streams
// would cost seconds and reach no code path the quick points miss), on one
// worker and on four, with no observer and with one (collectives are
// conducted either way, as under a fault plan, whose faulted helpers
// matmul's phantom tests cover), numeric and phantom operands must give
//
//   - the same per-rank Stats, bit for bit (payload-free/per-rank-stats);
//   - the same ActivePairs (payload-free/active-pairs);
//   - with the observer, the same per-rank segment streams
//     (payload-free/observer-stream);
//   - and the phantom run no product (payload-free/no-product).
//
// Every BcastLarge those algorithms issue splits evenly, so a small program
// covers the small-payload fallback at lengths p−1 and 2p+1 with the same
// comparisons. Last, the phantom region must still read zero after the
// family (payload-free/region-untouched): nothing wrote a phantom.
//
// The family prices on the sweep's machine and honours -alg for the matmul
// rows; the fallback and region checks always run.

// payloadFreeAlgorithms calls the registry's matmul entries on the given
// operands, numeric or phantom alike.
var payloadFreeAlgorithms = map[string]func(sim.Cost, Point, *matrix.Dense, *matrix.Dense) (*matmul.RunResult, error){
	"matmul-2.5d": func(cost sim.Cost, pt Point, a, b *matrix.Dense) (*matmul.RunResult, error) {
		return matmul.TwoPointFiveD(cost, pt.Q, pt.C, a, b)
	},
	"matmul-3d": func(cost sim.Cost, pt Point, a, b *matrix.Dense) (*matmul.RunResult, error) {
		return matmul.ThreeD(cost, pt.Q, a, b)
	},
	"matmul-summa-2.5d": func(cost sim.Cost, pt Point, a, b *matrix.Dense) (*matmul.RunResult, error) {
		return matmul.TwoPointFiveDSUMMA(cost, pt.Q, pt.C, a, b)
	},
	"matmul-summa-rect": func(cost sim.Cost, pt Point, a, b *matrix.Dense) (*matmul.RunResult, error) {
		return matmul.SUMMARect(cost, pt.PR, pt.PC, pt.Panel, a, b)
	},
}

// payloadFreeWorkers are the engine worker counts every comparison runs at.
var payloadFreeWorkers = []int{1, 4}

// payloadFreeOutcome is what a phantom run must share with its numeric
// twin. stream is empty for an unobserved run.
type payloadFreeOutcome struct {
	stats, stream string
	pairs         int
}

// comparePayloadFree runs program run on numeric and on phantom payloads at
// every worker count, unobserved and observed, and checks the outcomes
// equal.
func comparePayloadFree(ck *checker, cfg Config, alg string, pt Point, run func(cost sim.Cost, phantom bool) (*sim.Result, error)) error {
	for _, workers := range payloadFreeWorkers {
		for _, observed := range []bool{false, true} {
			route := fmt.Sprintf("workers=%d observed=%v", workers, observed)
			var out [2]payloadFreeOutcome
			for i, phantom := range []bool{false, true} {
				cost := cfg.cost()
				cost.Workers = workers
				obs := newStreamObs()
				if observed {
					cost.Observers = []sim.Observer{obs}
				}
				res, err := run(cost, phantom)
				if err != nil {
					return fmt.Errorf("conformance: payload-free %s %s %s phantom=%v: %w", alg, pt, route, phantom, err)
				}
				out[i] = payloadFreeOutcome{stats: statsDigest(res), pairs: res.ActivePairs}
				if observed {
					out[i].stream = obs.digest(pt.P)
				}
			}
			numeric, phantom := out[0], out[1]
			ck.checkTrue("payload-free/per-rank-stats", alg, pt, "", phantom.stats == numeric.stats, 0, 0,
				fmt.Sprintf("%s: the phantom run's per-rank stats digest to %s, the numeric run's to %s", route, phantom.stats, numeric.stats))
			ck.checkTrue("payload-free/active-pairs", alg, pt, "", phantom.pairs == numeric.pairs,
				float64(phantom.pairs), float64(numeric.pairs), route+": the phantom run wired a different number of pairs")
			if observed {
				ck.checkTrue("payload-free/observer-stream", alg, pt, "", phantom.stream == numeric.stream, 0, 0,
					fmt.Sprintf("%s: the phantom run's segment streams digest to %s, the numeric run's to %s", route, phantom.stream, numeric.stream))
			}
		}
	}
	return nil
}

func checkPayloadFree(ck *checker, cfg Config) error {
	words := 0 // the longest phantom the family asked for
	for _, alg := range selectAlgorithms(cfg.Algorithms) {
		algorithm, ok := payloadFreeAlgorithms[alg.name]
		if !ok {
			continue
		}
		for _, pt := range alg.points(Quick) {
			m, k, n := pt.N, pt.N, pt.N
			if pt.MDim > 0 {
				m, k = pt.MDim, pt.KDim
			}
			words = max(words, m*k, k*n)
			numA, numB := matrix.Random(m, k, 71), matrix.Random(k, n, 72)
			err := comparePayloadFree(ck, cfg, alg.name, pt, func(cost sim.Cost, phantom bool) (*sim.Result, error) {
				a, b := numA, numB
				if phantom {
					a, b = matmul.Phantom(m, k), matmul.Phantom(k, n)
				}
				rr, err := algorithm(cost, pt, a, b)
				if err != nil {
					return nil, err
				}
				if phantom {
					ck.checkTrue("payload-free/no-product", alg.name, pt, "", rr.C == nil, 0, 0,
						"a run on phantom operands assembled a product")
				}
				return rr.Sim, nil
			})
			if err != nil {
				return err
			}
		}
	}

	const fallbackAlg = "bcastlarge-fallback"
	for _, p := range []int{5, 8} {
		for _, n := range []int{p - 1, 2*p + 1} {
			words = max(words, n)
			err := comparePayloadFree(ck, cfg, fallbackAlg, Point{N: n, P: p}, func(cost sim.Cost, phantom bool) (*sim.Result, error) {
				return sim.Run(p, cost, bcastFallbackProgram(n, phantom))
			})
			if err != nil {
				return err
			}
		}
	}

	first := -1
	for i, v := range sim.Phantom(words) {
		if v != 0 {
			first = i
			break
		}
	}
	ck.checkTrue("payload-free/region-untouched", "phantom-region", Point{N: words}, "", first < 0, float64(first), -1,
		"a word of the phantom region is no longer zero (its index in Got): something wrote a phantom")
	return nil
}

// bcastFallbackProgram is the panel loop — each step's result is the next
// step's dst, under a rotating root — on n-word BcastLarge payloads, which
// take the binomial fallback when p ∤ n. Ranks compute unequal amounts
// before every step, so the arrival stamps the tree carries matter.
func bcastFallbackProgram(n int, phantom bool) func(*sim.Rank) error {
	return func(r *sim.Rank) error {
		w := r.World()
		var dst []float64
		for step := 0; step < 3; step++ {
			root := step % w.Size()
			var data []float64
			if w.Me() == root {
				data = sim.Phantom(n)
				if !phantom {
					data = make([]float64, n)
					for i := range data {
						data[i] = float64(step*n + i + 1)
					}
				}
			}
			r.Compute(float64(n * (r.ID() + 1)))
			dst = w.BcastLargeInto(dst, root, data)
			if len(dst) != n {
				return fmt.Errorf("rank %d step %d: received %d words, want %d", r.ID(), step, len(dst), n)
			}
		}
		return nil
	}
}
