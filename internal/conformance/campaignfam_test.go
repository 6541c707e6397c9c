package conformance

import (
	"testing"

	"perfscale/internal/machine"
)

// TestCampaignFamilyReplaysPinnedRepros runs the campaign family alone:
// every embedded reproducer must load, be strictly minimized, and replay
// its violation bitwise.
func TestCampaignFamilyReplaysPinnedRepros(t *testing.T) {
	cfg := Config{Machine: machine.SimDefault()}
	rep := &Report{Machine: cfg.Machine.Name, Level: cfg.Level.String(), Violations: []Violation{}}
	ck := &checker{m: cfg.Machine, cfg: &cfg, rep: rep}
	if err := checkCampaign(ck, cfg); err != nil {
		t.Fatal(err)
	}
	// Two checks per artifact (minimality + bitwise replay), at least one
	// artifact pinned (the under-provisioned detector).
	if rep.Checks < 2 {
		t.Fatalf("campaign family made %d checks; no artifacts embedded?", rep.Checks)
	}
	for _, v := range rep.Violations {
		t.Errorf("pinned reproducer violation: %s", v)
	}
}
