package conformance

import (
	"fmt"

	"perfscale/internal/core"
	"perfscale/internal/sim"
)

// checkDifferential verifies one finished run against the analytic models:
// first the exact pricing identities the clock semantics guarantee for
// every algorithm, then the per-algorithm expectation bands.
func checkDifferential(ck *checker, alg string, pt Point, run *algRun) {
	checkPricingIdentities(ck, alg, pt, run.res)
	checkPriceConsistency(ck, alg, pt, run.res)
	for _, e := range run.expects {
		ck.checkBand("differential/model-band", alg, pt, e.quantity, e.got, e.model, e.band, e.detail)
	}
}

// checkPricingIdentities verifies, per rank, the exact identities between
// the measured counters and the Eq. 1 pricing the simulator applied —
// the differential core: what the runtime *measured* must equal what the
// model *prices*, to floating accuracy, on clean uniform links.
//
//   - ComputeTime = γt·F
//   - SendTime    = αt·S + βt·W   (S counts ⌈k/m⌉ network messages)
//   - RecvTime    = 0             (the default clock semantics: receivers
//     wait, they are not charged — a mispriced Recv lands here)
//   - ComputeTime + SendTime + RecvTime + WaitTime = Time
//
// and, summed over ranks, the conservation laws ΣW_sent = ΣW_recv and
// ΣS_sent = ΣS_recv (every message that leaves arrives: no loss, no
// double-counting).
func checkPricingIdentities(ck *checker, alg string, pt Point, res *sim.Result) {
	m := ck.m
	const tol = 1e-9
	for id, s := range res.PerRank {
		rank := fmt.Sprintf("rank %d", id)
		ck.checkTrue("differential/compute-pricing", alg, pt, "T",
			relClose(s.ComputeTime, m.GammaT*s.Flops, tol),
			s.ComputeTime, m.GammaT*s.Flops,
			rank+": ComputeTime ≠ γt·F")
		wantSend := m.AlphaT*s.MsgsSent + m.BetaT*s.WordsSent
		ck.checkTrue("differential/send-pricing", alg, pt, "T",
			relClose(s.SendTime, wantSend, tol),
			s.SendTime, wantSend,
			rank+": SendTime ≠ αt·S + βt·W")
		ck.checkTrue("differential/recv-pricing", alg, pt, "T",
			s.RecvTime == 0,
			s.RecvTime, 0,
			rank+": RecvTime ≠ 0 under the default (receiver-waits) semantics")
		sum := s.ComputeTime + s.SendTime + s.RecvTime + s.WaitTime
		ck.checkTrue("differential/time-decomposition", alg, pt, "T",
			relClose(sum, s.Time, tol),
			sum, s.Time,
			rank+": ComputeTime+SendTime+RecvTime+WaitTime ≠ Time")
	}
	tot := res.TotalStats()
	ck.checkTrue("differential/word-conservation", alg, pt, "W",
		relClose(tot.WordsSent, tot.WordsRecv, tol),
		tot.WordsSent, tot.WordsRecv,
		"total words sent ≠ total words received")
	ck.checkTrue("differential/message-conservation", alg, pt, "S",
		relClose(tot.MsgsSent, tot.MsgsRecv, tol),
		tot.MsgsSent, tot.MsgsRecv,
		"total messages sent ≠ total messages received")
}

// checkPriceConsistency re-derives the Eq. 2 energy attribution from the raw
// per-rank counters, independently of core.PriceSim, and requires agreement:
// a differential check of the pricing code itself.
func checkPriceConsistency(ck *checker, alg string, pt Point, res *sim.Result) {
	m := ck.m
	T := res.Time()
	var compute, bandwidth, latency, memory, leakage float64
	for _, s := range res.PerRank {
		compute += m.GammaE * s.Flops
		bandwidth += m.BetaE * s.WordsSent
		latency += m.AlphaE * s.MsgsSent
		memory += m.DeltaE * s.PeakMemWords * T
		leakage += m.EpsilonE * T
	}
	want := compute + bandwidth + latency + memory + leakage
	got := core.PriceSim(m, res).Total()
	ck.checkTrue("differential/price-consistency", alg, pt, "E",
		relClose(got, want, 1e-12),
		got, want,
		"core.PriceSim disagrees with an independent Eq. 2 evaluation of the same counters")
}
