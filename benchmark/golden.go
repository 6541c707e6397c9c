package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
)

// golden.json pins the simulated statistics of every sim member and of
// every /simulate query shape. They are properties of the modelled machine,
// not of the host, and do not depend on the input seed: a change that only
// makes the simulator faster must leave each of them bit-identical.
//
//go:embed golden.json
var goldenJSON []byte

func loadGolden() (map[string]simStats, error) {
	var g map[string]simStats
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// checkGolden compares got with the pinned statistics of name, bit for bit.
func checkGolden(golden map[string]simStats, name string, got simStats) error {
	want, ok := golden[name]
	if !ok {
		return fmt.Errorf("golden.json has no entry %q", name)
	}
	got.ActivePairs = 0 // a host count, not pinned
	if got != want {
		return fmt.Errorf("%s: simulated statistics are %+v, golden.json pins %+v", name, got, want)
	}
	return nil
}

// simulateMember is the sim member that a /simulate query of shape alg runs.
func simulateMember(alg string) simMember {
	run := cannon25D(simulateQ, simulateC)
	if alg == "summa25d" {
		run = summa25D(simulateQ, simulateC)
	}
	return matmulMember("simulate_"+alg, simulateQ*simulateQ*simulateC, simulateN, simulateN, simulateN, run)
}

// writeGolden runs every pinned member once and writes its statistics.
func writeGolden(path string) error {
	members := append([]simMember{scaleMember}, mixMembers...)
	for _, alg := range simulateShapes {
		members = append(members, simulateMember(alg))
	}
	golden := make(map[string]simStats, len(members))
	for _, m := range members {
		run, check := m.prepare(1)
		h, err := run(runMode{})
		if err != nil {
			return fmt.Errorf("%s: %w", m.name, err)
		}
		if err := check(h); err != nil {
			return err
		}
		golden[m.name] = priceSim(h)
	}
	buf, err := json.MarshalIndent(golden, "", "  ") // keys come out sorted
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
