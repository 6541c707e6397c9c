package conformance

import (
	"testing"

	"perfscale/internal/machine"
)

// TestPayloadFreeIdentity runs the payload-free family alone on the quick
// grid: every phantom run must match its numeric twin and the phantom
// region must still read zero. The check count pins the family's coverage:
// per matmul point and worker count, 3 checks unobserved and 4 observed;
// per fallback (p, n) and worker count, 2 and 3; one region check.
func TestPayloadFreeIdentity(t *testing.T) {
	cfg := Config{Machine: machine.SimDefault(), Level: Quick}
	rep := &Report{Machine: cfg.Machine.Name, Level: cfg.Level.String(), Violations: []Violation{}}
	ck := &checker{m: cfg.Machine, rep: rep}
	if err := checkPayloadFree(ck, cfg); err != nil {
		t.Fatal(err)
	}
	points := 0
	for _, alg := range algorithms {
		if _, ok := payloadFreeAlgorithms[alg.name]; ok {
			points += len(alg.points(Quick))
		}
	}
	workers := len(payloadFreeWorkers)
	if want := points*workers*(3+4) + 4*workers*(2+3) + 1; rep.Checks != want {
		t.Errorf("payload-free family made %d checks, want %d", rep.Checks, want)
	}
	for _, v := range rep.Violations {
		t.Errorf("payload-free violation: %s", v)
	}
}
