// Package machine defines the architectural parameter sets used by the
// energy and runtime models of Demmel, Gearhart, Lipshitz and Schwartz,
// "Perfect Strong Scaling Using No Additional Energy" (IPDPS 2013).
//
// A Params value corresponds to the distributed machine of the paper's
// Figure 1(b): homogeneous processors connected by a network whose
// per-message and per-word costs stay constant as the machine scales.
// TwoLevel corresponds to the node+core machine of Figure 2.
package machine

import (
	"errors"
	"fmt"
	"math"
)

// Params holds the per-processor timing and energy parameters of the
// single-level distributed machine model.
//
// The paper's runtime model (Eq. 1) is
//
//	T = γt·F + βt·W + αt·S
//
// and its energy model (Eq. 2) is
//
//	E = p·(γe·F + βe·W + αe·S + δe·M·T + εe·T)
//
// where F, W and S are the flops, words sent and messages sent by one
// processor, M is the memory used per processor (in words) and T the total
// runtime.
type Params struct {
	// Name identifies the parameter set (e.g. "jaketown").
	Name string

	// GammaT is the time per flop γt in seconds.
	GammaT float64
	// BetaT is the time per word transferred βt in seconds (reciprocal
	// bandwidth).
	BetaT float64
	// AlphaT is the time per message αt in seconds (latency).
	AlphaT float64

	// GammaE is the energy per flop γe in joules.
	GammaE float64
	// BetaE is the energy per word transferred βe in joules.
	BetaE float64
	// AlphaE is the energy per message αe in joules.
	AlphaE float64
	// DeltaE is the energy per stored word per second δe in joules; the
	// model charges δe·M·T per processor for keeping M words powered for
	// the duration of the run.
	DeltaE float64
	// EpsilonE is the leakage energy per second εe in joules for everything
	// outside the memory (static circuit leakage, disks, fans, ...).
	EpsilonE float64

	// MemWords is M, the maximum usable memory per processor in words.
	MemWords float64
	// MaxMsgWords is m, the largest message the network accepts, in words
	// (m ≤ M).
	MaxMsgWords float64
}

// EnergyField selects one of the energy parameters for scaling studies
// (Section VI of the paper scales γe, βe and δe across process generations).
type EnergyField int

// Energy parameter selectors.
const (
	FieldGammaE EnergyField = iota
	FieldBetaE
	FieldAlphaE
	FieldDeltaE
	FieldEpsilonE
)

// String returns the conventional symbol for the field.
func (f EnergyField) String() string {
	switch f {
	case FieldGammaE:
		return "gamma_e"
	case FieldBetaE:
		return "beta_e"
	case FieldAlphaE:
		return "alpha_e"
	case FieldDeltaE:
		return "delta_e"
	case FieldEpsilonE:
		return "epsilon_e"
	}
	return fmt.Sprintf("EnergyField(%d)", int(f))
}

// Validate reports whether the parameter set is physically meaningful:
// all rates non-negative, γt strictly positive (a machine must be able to
// compute), and m ≤ M when both are set.
func (p Params) Validate() error {
	var errs []error
	if !positive(p.GammaT) {
		errs = append(errs, fmt.Errorf("gamma_t must be finite and positive, got %g", p.GammaT))
	}
	for _, c := range []struct {
		name string
		v    float64
	}{
		{"beta_t", p.BetaT}, {"alpha_t", p.AlphaT},
		{"gamma_e", p.GammaE}, {"beta_e", p.BetaE}, {"alpha_e", p.AlphaE},
		{"delta_e", p.DeltaE}, {"epsilon_e", p.EpsilonE},
	} {
		if c.v < 0 || math.IsNaN(c.v) || math.IsInf(c.v, 0) {
			errs = append(errs, fmt.Errorf("%s must be finite and non-negative, got %g", c.name, c.v))
		}
	}
	if !positive(p.MemWords) {
		errs = append(errs, fmt.Errorf("memory M must be finite and positive, got %g", p.MemWords))
	}
	if !positive(p.MaxMsgWords) {
		errs = append(errs, fmt.Errorf("max message m must be finite and positive, got %g", p.MaxMsgWords))
	}
	if p.MaxMsgWords > p.MemWords {
		errs = append(errs, fmt.Errorf("max message m = %g exceeds memory M = %g", p.MaxMsgWords, p.MemWords))
	}
	return errors.Join(errs...)
}

// ScaleEnergy returns a copy with the selected energy parameters multiplied
// by factor. It is the primitive behind the paper's Figure 6 (scale one
// parameter per process generation) and Figure 7 (scale several together).
func (p Params) ScaleEnergy(factor float64, fields ...EnergyField) Params {
	q := p
	for _, f := range fields {
		switch f {
		case FieldGammaE:
			q.GammaE *= factor
		case FieldBetaE:
			q.BetaE *= factor
		case FieldAlphaE:
			q.AlphaE *= factor
		case FieldDeltaE:
			q.DeltaE *= factor
		case FieldEpsilonE:
			q.EpsilonE *= factor
		}
	}
	return q
}

// AfterGenerations returns a copy with the selected energy parameters halved
// once per generation, the paper's "parameters reduce by half with each
// generation" assumption.
func (p Params) AfterGenerations(generations int, fields ...EnergyField) Params {
	if generations < 0 {
		generations = 0
	}
	return p.ScaleEnergy(math.Pow(0.5, float64(generations)), fields...)
}

// CommEnergyPerWord returns the effective energy cost of moving one word,
// including latency amortized over maximal messages and the leakage paid
// during the transfer:
//
//	B = (βe + βt·εe) + (αe + αt·εe)/m
//
// This combination appears in every bandwidth term of the paper's energy
// expressions (Eqs. 10, 13, 16).
func (p Params) CommEnergyPerWord() float64 {
	return p.BetaE + p.BetaT*p.EpsilonE + (p.AlphaE+p.AlphaT*p.EpsilonE)/p.MaxMsgWords
}

// CommTimePerWord returns the effective time to move one word with latency
// amortized over maximal messages: βt + αt/m.
func (p Params) CommTimePerWord() float64 {
	return p.BetaT + p.AlphaT/p.MaxMsgWords
}

// FlopEnergy returns the effective energy per flop including leakage paid
// while computing: γe + γt·εe.
func (p Params) FlopEnergy() float64 {
	return p.GammaE + p.GammaT*p.EpsilonE
}

// String summarizes the parameter set.
func (p Params) String() string {
	return fmt.Sprintf("machine %q: γt=%.4g βt=%.4g αt=%.4g | γe=%.4g βe=%.4g αe=%.4g δe=%.4g εe=%.4g | M=%.4g m=%.4g",
		p.Name, p.GammaT, p.BetaT, p.AlphaT,
		p.GammaE, p.BetaE, p.AlphaE, p.DeltaE, p.EpsilonE,
		p.MemWords, p.MaxMsgWords)
}

// TwoLevel holds the parameters of the paper's Figure 2 machine: pn nodes,
// each with pl cores; an inter-node network (superscript n) and an
// intra-node network (superscript l). The flop and leakage parameters are
// shared with the single-level model.
type TwoLevel struct {
	Name string

	// GammaT and GammaE are the per-flop time and energy of one core.
	GammaT float64
	GammaE float64
	// EpsilonE is the per-second leakage per core.
	EpsilonE float64

	// Inter-node link: time and energy per word and per message, node
	// memory size (words), node memory energy per word per second.
	BetaTN  float64
	AlphaTN float64
	BetaEN  float64
	AlphaEN float64
	MemN    float64
	DeltaEN float64
	// MaxMsgN is the inter-node maximum message size in words.
	MaxMsgN float64

	// Intra-node link: analogous parameters for core-to-core transfers,
	// core-local memory size and its energy.
	BetaTL  float64
	AlphaTL float64
	BetaEL  float64
	AlphaEL float64
	MemL    float64
	DeltaEL float64
	// MaxMsgL is the intra-node maximum message size in words.
	MaxMsgL float64
}

// Validate reports whether the two-level parameter set is meaningful.
func (t TwoLevel) Validate() error {
	var errs []error
	if !positive(t.GammaT) {
		errs = append(errs, fmt.Errorf("gamma_t must be finite and positive, got %g", t.GammaT))
	}
	for _, c := range []struct {
		name string
		v    float64
	}{
		{"gamma_e", t.GammaE}, {"epsilon_e", t.EpsilonE},
		{"beta_t^n", t.BetaTN}, {"alpha_t^n", t.AlphaTN},
		{"beta_e^n", t.BetaEN}, {"alpha_e^n", t.AlphaEN}, {"delta_e^n", t.DeltaEN},
		{"beta_t^l", t.BetaTL}, {"alpha_t^l", t.AlphaTL},
		{"beta_e^l", t.BetaEL}, {"alpha_e^l", t.AlphaEL}, {"delta_e^l", t.DeltaEL},
	} {
		if c.v < 0 || math.IsNaN(c.v) || math.IsInf(c.v, 0) {
			errs = append(errs, fmt.Errorf("%s must be finite and non-negative, got %g", c.name, c.v))
		}
	}
	if !positive(t.MemN) || !positive(t.MemL) {
		errs = append(errs, fmt.Errorf("memories must be finite and positive, got Mn=%g Ml=%g", t.MemN, t.MemL))
	}
	if !positive(t.MaxMsgN) || !positive(t.MaxMsgL) {
		errs = append(errs, fmt.Errorf("max messages must be finite and positive, got mn=%g ml=%g", t.MaxMsgN, t.MaxMsgL))
	}
	return errors.Join(errs...)
}

// positive reports whether v is a finite number above zero; NaN and ±Inf
// fail it (a bare v <= 0 test lets NaN through).
func positive(v float64) bool { return v > 0 && !math.IsInf(v, 1) }

// EffBetaTN returns the inter-node per-word time with latency folded in via
// the paper's substitution β ← β + α/m.
func (t TwoLevel) EffBetaTN() float64 { return t.BetaTN + t.AlphaTN/t.MaxMsgN }

// EffBetaTL returns the intra-node per-word time with latency folded in.
func (t TwoLevel) EffBetaTL() float64 { return t.BetaTL + t.AlphaTL/t.MaxMsgL }

// EffBetaEN returns the inter-node per-word energy with latency folded in.
func (t TwoLevel) EffBetaEN() float64 { return t.BetaEN + t.AlphaEN/t.MaxMsgN }

// EffBetaEL returns the intra-node per-word energy with latency folded in.
func (t TwoLevel) EffBetaEL() float64 { return t.BetaEL + t.AlphaEL/t.MaxMsgL }
