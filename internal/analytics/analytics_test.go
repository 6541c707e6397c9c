package analytics

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"perfscale/internal/bounds"
	"perfscale/internal/core"
	"perfscale/internal/machine"
	"perfscale/internal/matmul"
	"perfscale/internal/matrix"
	"perfscale/internal/obs"
	"perfscale/internal/sim"
)

func testMachine() machine.Params { return machine.SimDefault() }

// observedMatMul runs 2.5D matmul with a collector attached and returns the
// phase profile.
func observedMatMul(t *testing.T, cost sim.Cost, q, c, n int) (*sim.Result, *PhaseProfile) {
	t.Helper()
	a := matrix.Random(n, n, 31)
	b := matrix.Random(n, n, 32)
	p := q * q * c
	col := obs.NewCollector(p)
	cost.Observers = append(cost.Observers, col)
	res, err := matmul.TwoPointFiveD(cost, q, c, a, b)
	if err != nil {
		t.Fatalf("TwoPointFiveD(q=%d,c=%d,n=%d): %v", q, c, n, err)
	}
	meta := Meta{Algorithm: "matmul-2.5d", N: n, C: c}
	return res.Sim, BuildProfile(testMachine(), res.Sim, col, meta)
}

func TestBuildProfileMatMul(t *testing.T) {
	m := testMachine()
	cost := sim.Cost{GammaT: m.GammaT, BetaT: m.BetaT, AlphaT: m.AlphaT}
	res, prof := observedMatMul(t, cost, 2, 2, 32)

	if prof.P != 8 || prof.N != 32 || prof.C != 2 {
		t.Fatalf("profile meta wrong: %+v", prof)
	}
	if prof.T != res.Time() {
		t.Fatalf("profile T %v != res.Time %v", prof.T, res.Time())
	}
	for _, want := range []string{"replicate", "align", "multiply-shift", "reduce"} {
		ps := prof.Phase(want)
		if ps == nil {
			t.Fatalf("phase %q missing from profile (have %v)", want, phaseNames(prof))
		}
		if ps.Ranks == 0 || ps.Span.Max <= 0 {
			t.Fatalf("phase %q empty: %+v", want, ps)
		}
	}

	// The dynamic energy terms attributed to phases must sum to the
	// whole-run terms: every compute/send event lands in exactly one phase.
	var dynC, dynB, dynL float64
	for _, ps := range prof.Phases {
		dynC += ps.Energy.Compute
		dynB += ps.Energy.Bandwidth
		dynL += ps.Energy.Latency
	}
	checkClose(t, "compute energy", dynC, prof.Energy.Compute, 1e-9)
	checkClose(t, "bandwidth energy", dynB, prof.Energy.Bandwidth, 1e-9)
	checkClose(t, "latency energy", dynL, prof.Energy.Latency, 1e-9)

	// Whole-run energy matches core.PriceSim (same Eq. 2, same T).
	want := core.PriceSim(m, res).Total()
	checkClose(t, "total energy vs PriceSim", prof.Energy.Total(), want, 1e-9)

	// Per-rank spans partition each rank's clock: summed over phases and
	// ranks they equal the sum of rank end times.
	var spanSum, clockSum float64
	for _, ps := range prof.Phases {
		spanSum += ps.Span.Sum
	}
	for _, st := range res.PerRank {
		clockSum += st.Time
	}
	checkClose(t, "span partition", spanSum, clockSum, 1e-9)

	var buf bytes.Buffer
	if err := prof.WriteText(&buf); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	if !strings.Contains(buf.String(), "multiply-shift") {
		t.Fatalf("text render misses phases:\n%s", buf.String())
	}
}

func phaseNames(p *PhaseProfile) []string {
	names := make([]string, len(p.Phases))
	for i, ps := range p.Phases {
		names[i] = ps.Name
	}
	return names
}

func checkClose(t *testing.T, what string, got, want, rel float64) {
	t.Helper()
	if want == 0 {
		if got != 0 {
			t.Fatalf("%s: got %v, want 0", what, got)
		}
		return
	}
	if math.Abs(got/want-1) > rel {
		t.Fatalf("%s: got %v, want %v (rel err %v)", what, got, want, math.Abs(got/want-1))
	}
}

// TestDiffNamesDegradedPhase is the acceptance-criterion scenario: a clean
// run divided into a fault-degraded run of the same configuration must name
// the communication-heavy phase the degradation hit as the bottleneck.
func TestDiffNamesDegradedPhase(t *testing.T) {
	m := testMachine()
	clean := sim.Cost{GammaT: m.GammaT, BetaT: m.BetaT, AlphaT: m.AlphaT}
	_, profA := observedMatMul(t, clean, 4, 1, 64)

	// Degrade every link for the whole run: the phase with the most
	// communication — the q−1 shift steps of multiply-shift — accumulates
	// the most excess virtual time and must be singled out.
	degraded := clean
	degraded.Faults = &sim.FaultPlan{
		Seed: 7,
		Degraded: []sim.DegradedLink{
			{Src: -1, Dst: -1, AlphaFactor: 50, BetaFactor: 50},
		},
	}
	_, profB := observedMatMul(t, degraded, 4, 1, 64)

	rep := Diff(profA, profB, DiffOptions{ExpectedRatio: 1})
	if rep.Bottleneck != "multiply-shift" {
		t.Fatalf("bottleneck = %q, want multiply-shift\nphases: %+v", rep.Bottleneck, rep.Phases)
	}
	ms := phaseDiffByName(rep, "multiply-shift")
	if !ms.Flagged || ms.Ratio <= 1 {
		t.Fatalf("multiply-shift row not flagged slow: %+v", ms)
	}

	var buf bytes.Buffer
	if err := rep.WriteText(&buf); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	if !strings.Contains(buf.String(), "scaling bottleneck: multiply-shift") {
		t.Fatalf("text report does not name the bottleneck:\n%s", buf.String())
	}
}

func TestDiffCleanRunWithinTolerance(t *testing.T) {
	m := testMachine()
	cost := sim.Cost{GammaT: m.GammaT, BetaT: m.BetaT, AlphaT: m.AlphaT}
	_, profA := observedMatMul(t, cost, 2, 1, 32)
	_, profB := observedMatMul(t, cost, 2, 1, 32)
	rep := Diff(profA, profB, DiffOptions{ExpectedRatio: 1})
	if rep.Bottleneck != "" {
		t.Fatalf("identical runs produced a bottleneck %q", rep.Bottleneck)
	}
	for _, d := range rep.Phases {
		if d.Flagged {
			t.Fatalf("identical runs flagged phase %+v", d)
		}
		if math.Abs(d.Ratio-1) > 1e-9 {
			t.Fatalf("identical runs: phase %s ratio %v", d.Name, d.Ratio)
		}
	}
}

func phaseDiffByName(r *DiffReport, name string) PhaseDiff {
	for _, d := range r.Phases {
		if d.Name == name {
			return d
		}
	}
	return PhaseDiff{}
}

func TestStrongMatMulCurve(t *testing.T) {
	m := testMachine()
	rows, err := StrongMatMulCurve(m, core.SimCost(m), 96, 4, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("want 2 rows, got %d", len(rows))
	}
	r0, r1 := rows[0], rows[1]
	if r0.Efficiency != 1 || r0.EnergyRatio != 1 {
		t.Fatalf("first point not normalized: %+v", r0)
	}
	if r1.P != 2*r0.P {
		t.Fatalf("p did not double: %+v", r1)
	}
	// Inside the perfect-scaling region: efficiency near 1, energy near
	// constant. These are loose sanity bands — the tight check is the
	// golden file BENCH_scaling.json (TestCurvesGolden).
	if r1.Efficiency < 0.5 || r1.Efficiency > 1.5 {
		t.Fatalf("strong efficiency off the rails: %+v", r1)
	}
	if r1.EnergyRatio < 0.5 || r1.EnergyRatio > 1.5 {
		t.Fatalf("energy ratio off the rails: %+v", r1)
	}
	if r1.Predicted <= 0 || r1.Predicted > 1.01 {
		t.Fatalf("closed-form prediction implausible: %+v", r1)
	}
	if len(r1.PhaseSpans) == 0 || len(r1.PhaseEff) == 0 {
		t.Fatalf("curve row missing phase data: %+v", r1)
	}
	// Plateau annotation: n=96, q=4 fixes M = 576 per rank, so perfect
	// scaling ends exactly at p* = n³/M^(3/2) = 64; both rows sit inside
	// and must be attributed to the memory-dependent bound.
	for _, r := range rows {
		if math.Abs(r.PlateauP/64-1) > 1e-9 {
			t.Fatalf("plateau end = %g, want 64 (%+v)", r.PlateauP, r)
		}
		if r.PlateauBound != bounds.BoundClassicalMemDep {
			t.Fatalf("binding bound inside the plateau = %q, want %q", r.PlateauBound, bounds.BoundClassicalMemDep)
		}
	}
}

// TestDiffWallAnnotation: dividing a p=16 run by a p=64 run of the same
// problem with the plateau options set must annotate the report with the
// memory-independent wall — and leave it off when the options are absent.
func TestDiffWallAnnotation(t *testing.T) {
	m := testMachine()
	cost := sim.Cost{GammaT: m.GammaT, BetaT: m.BetaT, AlphaT: m.AlphaT}
	_, profA := observedMatMul(t, cost, 4, 1, 96)
	_, profB := observedMatMul(t, cost, 4, 4, 96)

	pl := bounds.ClassicalPlateau(96, 96*96/16)
	rep := Diff(profA, profB, DiffOptions{
		ExpectedRatio: 0.25,
		PlateauP:      pl.PEnd,
		PlateauBound:  pl.IndependentBound,
	})
	if rep.Wall == "" {
		t.Fatal("p=64 at the plateau end produced no wall annotation")
	}
	if !strings.Contains(rep.Wall, "memory-independent wall") ||
		!strings.Contains(rep.Wall, bounds.BoundClassicalMemIndep) {
		t.Fatalf("wall annotation does not name the binding bound: %q", rep.Wall)
	}
	var buf bytes.Buffer
	if err := rep.WriteText(&buf); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	if !strings.Contains(buf.String(), "note: "+rep.Wall) {
		t.Fatalf("text report does not carry the wall note:\n%s", buf.String())
	}

	if rep := Diff(profA, profB, DiffOptions{ExpectedRatio: 0.25}); rep.Wall != "" {
		t.Fatalf("wall annotated without plateau options: %q", rep.Wall)
	}
}

func TestWeakCurves(t *testing.T) {
	m := testMachine()
	rows, err := WeakMatMulCurve(m, core.SimCost(m), 16, []int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("want 2 rows, got %d", len(rows))
	}
	if rows[1].RankFlops <= rows[0].RankFlops {
		t.Fatalf("weak matmul per-rank work did not grow: %+v", rows)
	}
	for _, r := range rows {
		if r.Family != "weak" {
			t.Fatalf("wrong family: %+v", r)
		}
		if r.Efficiency <= 0 || r.Predicted <= 0 {
			t.Fatalf("degenerate weak row: %+v", r)
		}
		// Eq. 10 corollary: energy per flop constant under weak scaling.
		if r.EnergyRatio < 0.5 || r.EnergyRatio > 1.5 {
			t.Fatalf("energy per flop drifted: %+v", r)
		}
	}

	fftRows, err := WeakFFTCurve(m, core.SimCost(m), 64, []int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(fftRows) != 2 || fftRows[1].N != 2*fftRows[0].N {
		t.Fatalf("weak fft sizing wrong: %+v", fftRows)
	}
	for _, want := range []string{"row-fft", "all-to-all", "col-fft"} {
		if _, ok := fftRows[0].PhaseSpans[want]; !ok {
			t.Fatalf("fft profile misses phase %q: %+v", want, fftRows[0].PhaseSpans)
		}
	}
}

// TestPhaseProfileBackendIdentity pins that per-phase energy attribution
// for a fault-injected 2.5D run does not depend on the host schedule: a
// one-worker and a four-worker engine must agree bit for bit. The fault plan
// preserves message streams (corruption + a degraded-link window, no
// drops), so the run completes and every virtual-time quantity must agree
// exactly — including each phase's δe·M·span and εe·span slices.
func TestPhaseProfileBackendIdentity(t *testing.T) {
	m := testMachine()
	run := func(workers int) *PhaseProfile {
		cost := sim.Cost{
			GammaT: m.GammaT, BetaT: m.BetaT, AlphaT: m.AlphaT,
			Workers: workers,
			Faults: &sim.FaultPlan{
				Seed: 99,
				Links: []sim.LinkFault{
					{Src: -1, Dst: -1, CorruptProb: 0.25},
				},
				Degraded: []sim.DegradedLink{
					{Src: -1, Dst: -1, From: 0, Until: 1e-4, AlphaFactor: 3, BetaFactor: 2},
				},
			},
		}
		_, prof := observedMatMul(t, cost, 4, 2, 64)
		return prof
	}
	g := run(1)
	e := run(4)
	if !reflect.DeepEqual(g, e) {
		t.Fatalf("phase profiles differ across schedules:\none worker:   %+v\nfour workers: %+v", g, e)
	}
	for _, ps := range g.Phases {
		if ps.Energy.Total() < 0 {
			t.Fatalf("negative phase energy: %+v", ps)
		}
	}
}

// TestStrongPlateauConverges holds the 2.5D matmul's measured strong
// scaling to the paper's limit: at fixed q = 4, the efficiency gap 1 − eff
// and the energy gap E(c)/E(1) − 1 at c = 2 and c = 4 are replication
// overheads (broadcast and reduction words ∝ n² against flops ∝ n³), so
// each must shrink by about 2× every time n doubles and be at most 2 % at
// n = 3072. A 2.5D matmul whose layers each did the whole multiply would
// hold the efficiency near 1/c at every n.
func TestStrongPlateauConverges(t *testing.T) {
	m := testMachine()
	ns := []int{192, 384, 768, 1536, 3072}
	cs := []int{1, 2, 4}
	// gaps[k][j] are the two gaps at c = cs[k+1] and n = ns[j].
	var gaps [2][2][]float64
	for _, n := range ns {
		rows, err := StrongMatMulCurve(m, core.SimCost(m), n, 4, cs)
		if err != nil {
			t.Fatal(err)
		}
		for k, r := range rows[1:] {
			gaps[k][0] = append(gaps[k][0], 1-r.Efficiency)
			gaps[k][1] = append(gaps[k][1], r.EnergyRatio-1)
		}
	}
	for k := range gaps {
		for g, name := range []string{"1 - efficiency", "E ratio - 1"} {
			gap := gaps[k][g]
			t.Logf("c=%d %s: %.3g", cs[k+1], name, gap)
			for j := 1; j < len(ns); j++ {
				if shrink := gap[j-1] / gap[j]; !(shrink >= 1.8) {
					t.Errorf("c=%d %s shrank %.3g× from n=%d to n=%d, want ≥ 1.8×", cs[k+1], name, shrink, ns[j-1], ns[j])
				}
			}
			if last := gap[len(gap)-1]; !(last >= 0 && last <= 0.02) {
				t.Errorf("c=%d %s = %.3g at n=%d, want in [0, 0.02]", cs[k+1], name, last, ns[len(ns)-1])
			}
		}
	}
}
