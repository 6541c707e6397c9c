package resilience_test

import (
	"testing"

	"perfscale/internal/matmul"
	"perfscale/internal/matrix"
	"perfscale/internal/resilience"
	"perfscale/internal/sim"
)

func TestSUMMAARQMatchesSerial(t *testing.T) {
	const q, n = 2, 8
	a := matrix.Random(n, n, 1)
	b := matrix.Random(n, n, 2)
	cfg := resilience.ARQDefaults(testCost(), (n/q)*(n/q))
	res, err := resilience.SUMMAARQ(testCost(), q, cfg, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if diff := res.C.MaxAbsDiff(matmul.Serial(a, b)); diff > 1e-9 {
		t.Errorf("C diverges from serial by %g", diff)
	}
	if rep := res.Report(); rep.Retransmits != 0 || rep.Timeouts != 0 {
		t.Errorf("fault-free run paid protocol overhead: %+v", rep)
	}
}

// TestSUMMAARQMasksChaosDeterministically is the p = 64 chaos test: drops,
// duplication and corruption on every link at once. The run must complete
// (no deadlock abort), produce a C bit-identical to the fault-free run
// (retransmission changes when work happens, never what is computed), and
// replay deterministically — two runs under the same plan agree bitwise on
// every rank's Stats and on every rank's ARQ counters.
func TestSUMMAARQMasksChaosDeterministically(t *testing.T) {
	const q, n = 8, 64
	a := matrix.Random(n, n, 3)
	b := matrix.Random(n, n, 4)
	cost := sim.Cost{GammaT: 1e-9, BetaT: 1e-8, AlphaT: 1e-6}
	cfg := resilience.ARQDefaults(cost, (n/q)*(n/q))

	clean, err := resilience.SUMMAARQ(cost, q, cfg, a, b)
	if err != nil {
		t.Fatal(err)
	}

	chaos := cost
	chaos.Faults = &sim.FaultPlan{
		Seed: 99,
		Links: []sim.LinkFault{
			{Src: -1, Dst: -1, DropProb: 0.01, DupProb: 0.02, CorruptProb: 0.02},
		},
	}
	run1, err := resilience.SUMMAARQ(chaos, q, cfg, a, b)
	if err != nil {
		t.Fatal(err)
	}
	run2, err := resilience.SUMMAARQ(chaos, q, cfg, a, b)
	if err != nil {
		t.Fatal(err)
	}

	for i, v := range clean.C.Data {
		if run1.C.Data[i] != v {
			t.Fatalf("C word %d: chaos run %v differs from clean %v", i, run1.C.Data[i], v)
		}
	}
	rep := run1.Report()
	if rep.Retransmits == 0 || rep.DupsAbsorbed == 0 {
		t.Errorf("chaos plan exercised nothing: %+v", rep)
	}
	if cleanRep := clean.Report(); cleanRep.Retransmits != 0 {
		t.Errorf("fault-free run retransmitted: %+v", cleanRep)
	}

	for id := range run1.Sim.PerRank {
		if run1.Sim.PerRank[id] != run2.Sim.PerRank[id] {
			t.Errorf("rank %d sim stats differ across replays:\n  %+v\n  %+v",
				id, run1.Sim.PerRank[id], run2.Sim.PerRank[id])
		}
		if run1.ARQ[id] != run2.ARQ[id] {
			t.Errorf("rank %d ARQ counters differ across replays:\n  %+v\n  %+v",
				id, run1.ARQ[id], run2.ARQ[id])
		}
	}
}
