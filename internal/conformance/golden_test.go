package conformance

import (
	"encoding/json"
	"flag"
	"os"
	"testing"

	"perfscale/internal/machine"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.json from this build's runs")

// TestGoldenDigests runs the golden family alone: every pinned run must
// reproduce its committed digests. With -update it rewrites the file from
// the current build instead — only for an intended model change.
func TestGoldenDigests(t *testing.T) {
	cfg := Config{Machine: machine.SimDefault()}
	if *update {
		runs, err := goldenRuns(cfg)
		if err != nil {
			t.Fatal(err)
		}
		pinned := map[string]map[string]string{}
		for _, run := range runs {
			pinned[run.key] = map[string]string{}
			for _, v := range run.values {
				pinned[run.key][v.property] = v.value
			}
		}
		buf, err := json.MarshalIndent(pinned, "", "  ") // keys come out sorted
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("testdata/golden.json", append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d runs to testdata/golden.json", len(runs))
		return
	}
	rep := &Report{Machine: cfg.Machine.Name, Level: cfg.Level.String(), Violations: []Violation{}}
	ck := &checker{m: cfg.Machine, cfg: &cfg, rep: rep}
	if err := checkGolden(ck, cfg); err != nil {
		t.Fatal(err)
	}
	// Two pinned quantities per registry algorithm, two for the observed
	// run, four for the chaos run.
	if want := 2*len(algorithms) + 6; rep.Checks != want {
		t.Errorf("golden family made %d checks, want %d", rep.Checks, want)
	}
	for _, v := range rep.Violations {
		t.Errorf("golden violation: %s", v)
	}
}
