package machine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// paramsJSON is the on-disk schema for Params, using the paper's symbol
// names so files read like the model:
//
//	{
//	  "name": "mycluster",
//	  "gamma_t": 2.5e-12, "beta_t": 1.6e-10, "alpha_t": 6e-8,
//	  "gamma_e": 3.8e-10, "beta_e": 3.8e-10, "alpha_e": 0,
//	  "delta_e": 5.8e-9,  "epsilon_e": 0,
//	  "mem_words": 17179869184, "max_msg_words": 17179869184
//	}
type paramsJSON struct {
	Name        string  `json:"name"`
	GammaT      float64 `json:"gamma_t"`
	BetaT       float64 `json:"beta_t"`
	AlphaT      float64 `json:"alpha_t"`
	GammaE      float64 `json:"gamma_e"`
	BetaE       float64 `json:"beta_e"`
	AlphaE      float64 `json:"alpha_e"`
	DeltaE      float64 `json:"delta_e"`
	EpsilonE    float64 `json:"epsilon_e"`
	MemWords    float64 `json:"mem_words"`
	MaxMsgWords float64 `json:"max_msg_words"`
}

// MarshalJSON implements json.Marshaler with the symbol-named schema.
func (p Params) MarshalJSON() ([]byte, error) {
	return json.Marshal(paramsJSON{
		Name:   p.Name,
		GammaT: p.GammaT, BetaT: p.BetaT, AlphaT: p.AlphaT,
		GammaE: p.GammaE, BetaE: p.BetaE, AlphaE: p.AlphaE,
		DeltaE: p.DeltaE, EpsilonE: p.EpsilonE,
		MemWords: p.MemWords, MaxMsgWords: p.MaxMsgWords,
	})
}

// UnmarshalJSON implements json.Unmarshaler. An unknown key is an error: a
// misspelt "delta_e" would otherwise load as δe = 0 and drop Eq. 2's memory
// term without a word. The strict decoder must live here, because a
// caller's DisallowUnknownFields does not reach a custom unmarshaler.
func (p *Params) UnmarshalJSON(data []byte) error {
	var j paramsJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&j); err != nil {
		return err
	}
	*p = Params{
		Name:   j.Name,
		GammaT: j.GammaT, BetaT: j.BetaT, AlphaT: j.AlphaT,
		GammaE: j.GammaE, BetaE: j.BetaE, AlphaE: j.AlphaE,
		DeltaE: j.DeltaE, EpsilonE: j.EpsilonE,
		MemWords: j.MemWords, MaxMsgWords: j.MaxMsgWords,
	}
	return nil
}

// LoadFile reads and validates a machine parameter set from a JSON file.
func LoadFile(path string) (Params, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Params{}, fmt.Errorf("machine: %w", err)
	}
	var p Params
	if err := json.Unmarshal(data, &p); err != nil {
		return Params{}, fmt.Errorf("machine: parsing %s: %w", path, err)
	}
	if err := p.Validate(); err != nil {
		return Params{}, fmt.Errorf("machine: %s: %w", path, err)
	}
	return p, nil
}

// Resolve returns a machine from either a preset name or, when the name
// ends in ".json", a parameter file — the lookup every command-line tool
// shares.
func Resolve(nameOrPath string) (Params, error) {
	if len(nameOrPath) > 5 && nameOrPath[len(nameOrPath)-5:] == ".json" {
		return LoadFile(nameOrPath)
	}
	return ByName(nameOrPath)
}
