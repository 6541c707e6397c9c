package main

import (
	"fmt"
	"math"

	"perfscale/internal/fft"
	"perfscale/internal/lu"
	"perfscale/internal/matmul"
	"perfscale/internal/matrix"
	"perfscale/internal/report"
	"perfscale/internal/sim"
	"perfscale/internal/strassen"
)

// An ablation re-runs one DESIGN §5 comparison: claim is the shape DESIGN
// §5 states for it, and measure reports the measured values and whether
// the claim holds on them.
type ablation struct {
	choice, claim string
	measure       func() (measured string, holds bool, err error)
}

// near is the ablations' reading of "≈": within 15 % of want.
func near(v, want float64) bool { return math.Abs(v-want) <= 0.15*want }

func (r *reporter) ablations() {
	r.p("Each row re-runs one design choice of DESIGN §5 both ways and checks the shape DESIGN §5 claims for it; ≈x means within 15 %% of x. A claim that breaks fails the report.")
	r.p("")
	t := report.NewTable("", "design choice", "claim (DESIGN §5)", "measured", "holds")
	for _, a := range []ablation{
		{"virtual-clock charging: sender pays vs both sides (2.5D matmul, n=96, q=4)",
			"both sides ≈2x the communication time (γt = 0) at every c; speedup still rises with c", ablateClockCharging},
		{"FFT all-to-all: naive vs tree (n=1024, p=16)",
			"naive wins at small αt/βt, tree at large, with one crossover", ablateAllToAll},
		{"broadcast: binomial tree vs scatter+allgather (p=8)",
			"tree wins at 1 word (the log p latency term); scatter+allgather wins at 2¹⁴ words in time and root words", ablateBroadcast},
		{"Strassen cutoff (n=512)",
			"flops/2n³ falls as the cutoff shrinks, below 1 at every cutoff < n", ablateStrassenCutoff},
		{"2.5D inner algorithm: SUMMA vs Cannon (n=96, q=4, c=2)",
			"SUMMA/Cannon time ≈3x latency-dominated, ≈1.3x bandwidth-dominated", ablateInnerAlgorithm},
		{"LU layout: block vs block-cyclic (n=64, q=2, nb=8)",
			"busiest-rank flop imbalance ≈2.0x block, ≈1.2x cyclic", ablateLULayout},
		{"CAPS schedule: BFS vs DFS-then-BFS (n=112, p=7)",
			"DFS-prefixed: ≈½ the peak memory, ≈2.8x the words", ablateCAPSSchedule},
		{"torus placement: embedded vs scrambled (Cannon, n=64, 8x8 torus)",
			"scrambled ≈3.7x the embedded time", ablateTorusPlacement},
		{"topology: 4x4x4 torus vs uniform links (2.5D matmul, n=96, p=64)",
			"torus time ≈1x uniform (nearest-neighbor traffic)", ablateTorusTopology},
	} {
		measured, holds, err := a.measure()
		if err != nil {
			r.fail(fmt.Errorf("ablation %q: %w", a.choice, err))
			continue
		}
		status := "yes"
		if !holds {
			status = "NO"
			r.fail(fmt.Errorf("ablation %q: claim %q does not hold (%s)", a.choice, a.claim, measured))
		}
		t.AddRow(a.choice, a.claim, measured, status)
	}
	r.table(t)
	r.p("Finding: DESIGN §5 called bandwidth-dominated 2.5D SUMMA and Cannon \"near-parity\", but the measured ratio (2.5D inner algorithm row) is not within 15 %% of 1; the claim checked is ≈1.3x.")
}

func ablateClockCharging() (string, bool, error) {
	a := matrix.Random(96, 96, 1)
	b := matrix.Random(96, 96, 2)
	times := func(cost sim.Cost) ([]float64, error) {
		var ts []float64
		for _, c := range []int{1, 2, 4} {
			res, err := matmul.TwoPointFiveD(cost, 4, c, a, b)
			if err != nil {
				return nil, err
			}
			ts = append(ts, res.Sim.Time())
		}
		return ts, nil
	}
	both := func(c sim.Cost) sim.Cost { c.ChargeReceiver = true; return c }
	comm := sim.Cost{BetaT: 4e-9, AlphaT: 1e-8}
	var runs [4][]float64
	for i, cost := range []sim.Cost{comm, both(comm), bwCost, both(bwCost)} {
		ts, err := times(cost)
		if err != nil {
			return "", false, err
		}
		runs[i] = ts
	}
	holds := true
	var ratios [3]float64
	for i := range ratios {
		ratios[i] = runs[1][i] / runs[0][i]
		holds = holds && near(ratios[i], 2)
	}
	for _, ts := range runs[2:] {
		holds = holds && ts[0] > ts[1] && ts[1] > ts[2]
	}
	return fmt.Sprintf("comm time %.2fx / %.2fx / %.2fx at c = 1/2/4; speedup at c=4 %.2f sender-pays, %.2f both sides",
		ratios[0], ratios[1], ratios[2], runs[2][0]/runs[2][2], runs[3][0]/runs[3][2]), holds, nil
}

func ablateAllToAll() (string, bool, error) {
	const n, p = 1024, 16
	x := fft.RandomSignal(n, 3)
	var treeWins []bool
	var ratios []float64
	for ratio := 1.0; ratio <= 1<<20; ratio *= 2 {
		cost := sim.Cost{BetaT: 1e-9, AlphaT: 1e-9 * ratio}
		naive, err := fft.Distributed(cost, p, x, false)
		if err != nil {
			return "", false, err
		}
		tree, err := fft.Distributed(cost, p, x, true)
		if err != nil {
			return "", false, err
		}
		treeWins = append(treeWins, tree.Sim.Time() < naive.Sim.Time())
		ratios = append(ratios, ratio)
	}
	flips, cross := 0, math.NaN()
	for i := 1; i < len(treeWins); i++ {
		if treeWins[i] != treeWins[i-1] {
			flips++
			cross = ratios[i]
		}
	}
	holds := !treeWins[0] && treeWins[len(treeWins)-1] && flips == 1
	return fmt.Sprintf("tree wins from αt/βt = %s words (sweep 1 to 2²⁰, doubling); winner changes %d time(s)",
		report.FormatFloat(cross), flips), holds, nil
}

func ablateBroadcast() (string, bool, error) {
	const p = 8
	cost := sim.Cost{BetaT: 1e-9, AlphaT: 1e-8}
	bcast := func(k int, large bool) (*sim.Result, error) {
		data := make([]float64, k)
		return sim.Run(p, cost, func(r *sim.Rank) error {
			var in []float64
			if r.ID() == 0 {
				in = data
			}
			if large {
				r.World().BcastLarge(0, in)
			} else {
				r.World().Bcast(0, in)
			}
			return nil
		})
	}
	var res [4]*sim.Result
	for i, k := range []int{1, 1 << 14} {
		for j, large := range []bool{false, true} {
			rr, err := bcast(k, large)
			if err != nil {
				return "", false, err
			}
			res[2*i+j] = rr
		}
	}
	smallTime := res[0].Time() / res[1].Time()
	bigTime := res[2].Time() / res[3].Time()
	bigWords := res[2].PerRank[0].WordsSent / res[3].PerRank[0].WordsSent
	holds := smallTime < 1 && bigTime > 1 && bigWords > 1
	return fmt.Sprintf("tree/scatter+allgather time %.2fx at 1 word; %.2fx time and %.2fx root words at 2¹⁴ words",
		smallTime, bigTime, bigWords), holds, nil
}

func ablateStrassenCutoff() (string, bool, error) {
	const n = 512
	classical := 2.0 * n * n * n
	cutoffs := []int{16, 64, 256}
	holds := true
	measured := "flops/2n³"
	prev := 0.0
	for _, cut := range cutoffs {
		ratio := strassen.Flops(n, cut) / classical
		holds = holds && ratio > prev && ratio < 1
		prev = ratio
		measured += fmt.Sprintf(" %.3f (cutoff %d)", ratio, cut)
	}
	return measured, holds, nil
}

func ablateInnerAlgorithm() (string, bool, error) {
	const n, q, c = 96, 4, 2
	a := matrix.Random(n, n, 9)
	b := matrix.Random(n, n, 10)
	ratio := func(cost sim.Cost) (float64, error) {
		summa, err := matmul.TwoPointFiveDSUMMA(cost, q, c, a, b)
		if err != nil {
			return 0, err
		}
		cannon, err := matmul.TwoPointFiveD(cost, q, c, a, b)
		if err != nil {
			return 0, err
		}
		return summa.Sim.Time() / cannon.Sim.Time(), nil
	}
	lat, err := ratio(sim.Cost{AlphaT: 1e-6})
	if err != nil {
		return "", false, err
	}
	bw, err := ratio(sim.Cost{BetaT: 4e-9})
	if err != nil {
		return "", false, err
	}
	return fmt.Sprintf("SUMMA/Cannon %.2fx (αt only), %.2fx (βt only)", lat, bw), near(lat, 3) && near(bw, 1.3), nil
}

func ablateLULayout() (string, bool, error) {
	const n, q = 64, 2
	a := matrix.RandomDiagDominant(n, 11)
	blk, err := lu.Stacked(sim.Cost{}, q, 1, a)
	if err != nil {
		return "", false, err
	}
	cyc, err := lu.TwoDCyclic(sim.Cost{}, q, 8, a)
	if err != nil {
		return "", false, err
	}
	imb := func(r *lu.Result) float64 {
		return r.Sim.MaxStats().Flops * float64(q*q) / r.Sim.TotalStats().Flops
	}
	bi, ci := imb(blk), imb(cyc)
	return fmt.Sprintf("imbalance %.2fx block, %.2fx cyclic", bi, ci), near(bi, 2.0) && near(ci, 1.2), nil
}

func ablateCAPSSchedule() (string, bool, error) {
	const n = 112
	a := matrix.Random(n, n, 3)
	b := matrix.Random(n, n, 4)
	bfs, err := strassen.CAPSSchedule(sim.Cost{}, "B", a, b, 8)
	if err != nil {
		return "", false, err
	}
	dfs, err := strassen.CAPSSchedule(sim.Cost{}, "DB", a, b, 8)
	if err != nil {
		return "", false, err
	}
	mem := dfs.Sim.MaxStats().PeakMemWords / bfs.Sim.MaxStats().PeakMemWords
	words := dfs.Sim.MaxStats().WordsSent / bfs.Sim.MaxStats().WordsSent
	return fmt.Sprintf("DFS/BFS peak memory %.2fx, words %.2fx", mem, words), near(mem, 0.5) && near(words, 2.8), nil
}

func ablateTorusPlacement() (string, bool, error) {
	const n, q = 64, 8
	tor := sim.Torus3DLinks{X: 8, Y: 8, Z: 1, AlphaPerHop: 1e-7}
	grid, err := sim.NewGrid3D(q, 1, q*q)
	if err != nil {
		return "", false, err
	}
	good, err := sim.GridToTorusPlacement(grid, tor)
	if err != nil {
		return "", false, err
	}
	bad := make([]int, len(good))
	for i := range bad {
		bad[i] = (i*37 + 11) % len(bad)
	}
	a := matrix.Random(n, n, 7)
	b := matrix.Random(n, n, 8)
	var ts [2]float64
	for i, place := range [][]int{good, bad} {
		// Latency-only: the torus keeps bandwidth uniform, so hop counts
		// are the whole story.
		res, err := matmul.TwoPointFiveD(sim.Cost{Links: sim.PlacedLinks{Base: tor, Place: place}}, q, 1, a, b)
		if err != nil {
			return "", false, err
		}
		ts[i] = res.Sim.Time()
	}
	ratio := ts[1] / ts[0]
	return fmt.Sprintf("scrambled/embedded time %.2fx", ratio), near(ratio, 3.7), nil
}

func ablateTorusTopology() (string, bool, error) {
	const n, q, c = 96, 4, 4
	uniform := sim.Cost{GammaT: 1e-9, BetaT: 4e-9, AlphaT: 1e-7}
	torus := uniform
	torus.Links = sim.Torus3DLinks{X: 4, Y: 4, Z: 4, AlphaPerHop: 1e-7, BetaPerWord: 4e-9}
	a := matrix.Random(n, n, 5)
	b := matrix.Random(n, n, 6)
	var ts [2]float64
	for i, cost := range []sim.Cost{uniform, torus} {
		res, err := matmul.TwoPointFiveD(cost, q, c, a, b)
		if err != nil {
			return "", false, err
		}
		ts[i] = res.Sim.Time()
	}
	ratio := ts[1] / ts[0]
	return fmt.Sprintf("torus/uniform time %.3fx", ratio), near(ratio, 1), nil
}
