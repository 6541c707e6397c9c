package opt

import (
	"math"
)

// This file takes up two of the paper's Section VII open problems that its
// machinery already supports:
//
//   - "Minimizing average power for the data-replicating n-body algorithm":
//     solved below in closed form plus a numeric cross-check.
//   - The matmul analogue of the Section V.E per-processor power cap, which
//     the paper leaves to the technical report: solved numerically.

// MinAvgPowerConfig returns the configuration minimizing average power
// P = E/T for the n-body problem, together with that power.
//
// For fixed M, E is constant in p while T ∝ 1/p, so average power grows
// with p: the power-minimizing run uses the fewest processors that hold
// the data, p = n/M (the 1D limit). Along that limit,
//
//	P(M) = E(M) / T(n/M, M)
//
// is unimodal in M and is minimized where more memory's energy cost stops
// paying for the shorter runtime; the minimizer is found by golden-section
// search. Note the contrast with §V.A: minimum energy picks M0 and any p,
// minimum power picks the 1D limit.
func (pb NBody) MinAvgPowerConfig() (Config, float64) {
	power := func(mem float64) float64 {
		p := pb.N / mem // 1D limit
		return pb.Energy(mem) / pb.Time(p, mem)
	}
	// M ranges over the whole execution region: from n/pmax... any M up to
	// n (single processor holds everything).
	mem, pw := MinimizeUnimodal(power, 1, pb.N)
	return Config{P: pb.N / mem, Mem: mem}, pw
}

// MemRangeGivenProcPower is the §V.E matmul analogue: the memory interval
// within which the per-processor power of classical matmul stays at or
// below pMax. The matmul power curve P1(M) is unimodal like the n-body
// one, but the paper leaves its quadratic to the technical report; we
// bracket the feasible interval numerically against opt.MatMul.ProcPower.
func (pb MatMul) MemRangeGivenProcPower(pMax float64) (mLo, mHi float64, err error) {
	hi := math.Min(pb.M.MemWords, pb.N*pb.N)
	// Find the power-minimizing memory first.
	mMin, pMin := MinimizeUnimodal(pb.ProcPower, 1, hi)
	if pMin > pMax {
		return 0, 0, ErrInfeasible
	}
	// Left edge: P1 decreasing on [1, mMin].
	if pb.ProcPower(1) <= pMax {
		mLo = 1
	} else {
		lo, hiB := 1.0, mMin
		for i := 0; i < 200 && hiB > lo*(1+1e-14); i++ {
			mid := math.Sqrt(lo * hiB)
			if pb.ProcPower(mid) <= pMax {
				hiB = mid
			} else {
				lo = mid
			}
		}
		mLo = hiB
	}
	// Right edge: P1 increasing on [mMin, hi].
	if pb.ProcPower(hi) <= pMax {
		mHi = hi
	} else {
		lo, hiB := mMin, hi
		for i := 0; i < 200 && hiB > lo*(1+1e-14); i++ {
			mid := math.Sqrt(lo * hiB)
			if pb.ProcPower(mid) <= pMax {
				lo = mid
			} else {
				hiB = mid
			}
		}
		mHi = lo
	}
	return mLo, mHi, nil
}

// MinEnergyGivenProcPower answers the matmul version of §V.E's second
// question: the best memory and energy under a per-processor power cap.
func (pb MatMul) MinEnergyGivenProcPower(pMax float64) (float64, float64, error) {
	mLo, mHi, err := pb.MemRangeGivenProcPower(pMax)
	if err != nil {
		return 0, 0, err
	}
	mStar := pb.OptimalMemory()
	mem := math.Min(math.Max(mStar, mLo), mHi)
	return mem, pb.Energy(mem), nil
}
