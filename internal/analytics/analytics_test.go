package analytics

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
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
	sc := SweepConfig{Machine: testMachine()}
	rows, err := StrongMatMulCurve(sc, 96, 4, []int{1, 2})
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
	// committed-baseline gate.
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
	if r1.Key() == r0.Key() {
		t.Fatalf("rows share a key: %s", r0.Key())
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

func TestRectSUMMACurve(t *testing.T) {
	sc := SweepConfig{Machine: testMachine()}
	rows, err := RectSUMMACurve(sc, 48, 16, 32, 4, [][2]int{{1, 2}, {2, 2}, {2, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("want 3 rows, got %d", len(rows))
	}
	if rows[0].Efficiency != 1 {
		t.Fatalf("first point not normalized: %+v", rows[0])
	}
	for i, r := range rows {
		if r.Algorithm != "matmul-summa-rect" || r.Family != "strong" {
			t.Fatalf("row %d mislabeled: %+v", i, r)
		}
		if !strings.HasPrefix(r.PlateauBound, bounds.BoundRectPrefix) {
			t.Fatalf("row %d bound %q is not a rect regime attribution", i, r.PlateauBound)
		}
		if r.PlateauP <= 0 || r.Predicted <= 0 {
			t.Fatalf("row %d missing plateau/prediction: %+v", i, r)
		}
		if r.Efficiency < 0.1 || r.Efficiency > 1.5 {
			t.Fatalf("row %d efficiency off the rails: %+v", i, r)
		}
	}
	// The grids straddle the two-large→three-large crossover of the 48×16×32
	// shape: the attribution must not be constant across the curve.
	if rows[0].PlateauBound == rows[2].PlateauBound {
		t.Fatalf("regime attribution never changed: %q", rows[0].PlateauBound)
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
	sc := SweepConfig{Machine: testMachine()}
	rows, err := WeakMatMulCurve(sc, 16, []int{2, 4})
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

	fftRows, err := WeakFFTCurve(sc, 64, []int{2, 4})
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

func TestCheckCurvesGate(t *testing.T) {
	base := []CurvePoint{
		{Family: "strong", Algorithm: "matmul-2.5d", N: 96, P: 16, C: 1,
			SimT: 1.0, Efficiency: 1.0, PhaseSpans: map[string]float64{"multiply-shift": 0.6, "reduce": 0.1}},
		{Family: "strong", Algorithm: "matmul-2.5d", N: 96, P: 32, C: 2,
			SimT: 0.5, Efficiency: 0.98, PhaseSpans: map[string]float64{"multiply-shift": 0.3, "reduce": 0.06}},
	}

	if regs := CheckCurves(base, base, 0.02); len(regs) != 0 {
		t.Fatalf("identical curves regressed: %+v", regs)
	}

	// Degrade efficiency beyond tolerance on the second row.
	cur := cloneCurves(base)
	cur[1].Efficiency = 0.90
	regs := CheckCurves(cur, base, 0.02)
	if !hasRegression(regs, cur[1].Key(), "efficiency") {
		t.Fatalf("efficiency drop not caught: %+v", regs)
	}

	// Slow one phase beyond tolerance.
	cur = cloneCurves(base)
	cur[0].PhaseSpans["multiply-shift"] = 0.7
	regs = CheckCurves(cur, base, 0.02)
	if !hasRegression(regs, cur[0].Key(), "phase:multiply-shift") {
		t.Fatalf("phase span growth not caught: %+v", regs)
	}

	// Drop a whole row.
	regs = CheckCurves(cur[:1], base, 0.02)
	if !hasRegression(regs, base[1].Key(), "missing") {
		t.Fatalf("missing row not caught: %+v", regs)
	}

	// Grow virtual time.
	cur = cloneCurves(base)
	cur[0].SimT = 1.1
	regs = CheckCurves(cur, base, 0.02)
	if !hasRegression(regs, cur[0].Key(), "sim_time_s") {
		t.Fatalf("sim time growth not caught: %+v", regs)
	}

	// Improvements pass.
	cur = cloneCurves(base)
	cur[1].Efficiency = 1.0
	cur[0].SimT = 0.9
	if regs := CheckCurves(cur, base, 0.02); len(regs) != 0 {
		t.Fatalf("improvement flagged as regression: %+v", regs)
	}
}

func cloneCurves(in []CurvePoint) []CurvePoint {
	out := make([]CurvePoint, len(in))
	for i, r := range in {
		out[i] = r
		out[i].PhaseSpans = map[string]float64{}
		for k, v := range r.PhaseSpans {
			out[i].PhaseSpans[k] = v
		}
	}
	return out
}

func hasRegression(regs []Regression, key, field string) bool {
	for _, r := range regs {
		if r.Key == key && r.Field == field {
			return true
		}
	}
	return false
}

func TestCurveFileRoundTrip(t *testing.T) {
	sc := SweepConfig{Machine: testMachine()}
	rows, err := StrongMatMulCurve(sc, 48, 2, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "curves.json")
	if err := WriteCurves(path, testMachine().Name, rows); err != nil {
		t.Fatal(err)
	}
	back, err := LoadCurves(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows, back) {
		t.Fatalf("round trip drift:\nwrote %+v\nread  %+v", rows, back)
	}
	if regs := CheckCurves(back, rows, 0.02); len(regs) != 0 {
		t.Fatalf("round-tripped baseline regressed: %+v", regs)
	}
	if _, err := LoadCurves(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Fatal("loading a missing file succeeded")
	}

	// Baselines written when curves carried a runtime axis still load and
	// match: the stray field is ignored, the key no longer includes it.
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	old := bytes.ReplaceAll(buf, []byte(`"algorithm":`), []byte(`"runtime": "goroutine", "algorithm":`))
	if bytes.Equal(old, buf) {
		t.Fatal("no row gained a runtime field; the fixture tests nothing")
	}
	oldPath := filepath.Join(t.TempDir(), "old.json")
	if err := os.WriteFile(oldPath, old, 0o644); err != nil {
		t.Fatal(err)
	}
	oldRows, err := LoadCurves(oldPath)
	if err != nil {
		t.Fatalf("baseline with a stray runtime field did not load: %v", err)
	}
	if regs := CheckCurves(rows, oldRows, 0.02); len(regs) != 0 {
		t.Fatalf("baseline with a stray runtime field no longer matches: %+v", regs)
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
