package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"perfscale/internal/analytics"
)

// The test binary re-executes itself with SCALEDIFF_RUN_MAIN=1 so main()
// runs exactly as shipped, flag parsing and exit codes included.
func TestMain(m *testing.M) {
	if os.Getenv("SCALEDIFF_RUN_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

func runScalediff(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "SCALEDIFF_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	code := 0
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("scalediff %v did not run: %v\n%s", args, err, out)
		}
		code = ee.ExitCode()
	}
	return string(out), code
}

// TestDegradedPhaseNamedBottleneck is the acceptance-criterion scenario on
// the CLI: a fault-plan-slowed shift phase must be named as the scaling
// bottleneck.
func TestDegradedPhaseNamedBottleneck(t *testing.T) {
	out, code := runScalediff(t, "-alg", "matmul", "-n", "64", "-q", "4",
		"-degrade", "multiply-shift", "-degrade-beta", "50")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "scaling bottleneck: multiply-shift") {
		t.Fatalf("degraded phase not named:\n%s", out)
	}
}

func TestStrongScalingDiff(t *testing.T) {
	out, code := runScalediff(t, "-alg", "matmul", "-n", "96", "-q", "4", "-c", "1", "-c2", "4")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "p=16 -> p=64") {
		t.Fatalf("diff header missing:\n%s", out)
	}
	// The work-bearing phase must shrink toward the predicted 1/4 span;
	// replicate/reduce exist only on the c=4 side and are correctly
	// surfaced as one-sided rows.
	if !strings.Contains(out, "multiply-shift") || !strings.Contains(out, "replicate") {
		t.Fatalf("expected phase rows missing:\n%s", out)
	}

	// Identical configurations: no phase may be flagged.
	out, code = runScalediff(t, "-alg", "matmul", "-n", "64", "-q", "4")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	if strings.Contains(out, "BOTTLENECK") {
		t.Fatalf("identical runs flagged a bottleneck:\n%s", out)
	}
	if !strings.Contains(out, "all phases within tolerance") {
		t.Fatalf("clean verdict missing:\n%s", out)
	}
}

func TestJSONOutput(t *testing.T) {
	out, code := runScalediff(t, "-alg", "fft", "-n", "256", "-q", "4", "-json")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	var doc struct {
		A    *analytics.PhaseProfile `json:"a"`
		Diff *analytics.DiffReport   `json:"diff"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out)
	}
	if doc.A == nil || doc.A.Phase("all-to-all") == nil {
		t.Fatalf("fft profile misses all-to-all phase: %+v", doc.A)
	}
}

func TestGateMode(t *testing.T) {
	dir := t.TempDir()
	base := []analytics.CurvePoint{{
		Family: "strong", Algorithm: "matmul-2.5d",
		N: 96, P: 16, C: 1, SimT: 1, Efficiency: 1,
		PhaseSpans: map[string]float64{"multiply-shift": 0.5},
	}}
	basePath := filepath.Join(dir, "base.json")
	if err := analytics.WriteCurves(basePath, "simdefault", base); err != nil {
		t.Fatal(err)
	}

	// Identical current: gate passes.
	out, code := runScalediff(t, "-baseline", basePath, "-current", basePath)
	if code != 0 {
		t.Fatalf("clean gate exited %d:\n%s", code, out)
	}
	if !strings.Contains(out, "no scaling regressions") {
		t.Fatalf("clean gate output wrong:\n%s", out)
	}

	// Synthetically regressed current: gate exits non-zero.
	bad := []analytics.CurvePoint{base[0]}
	bad[0].Efficiency = 0.8
	badPath := filepath.Join(dir, "bad.json")
	if err := analytics.WriteCurves(badPath, "simdefault", bad); err != nil {
		t.Fatal(err)
	}
	out, code = runScalediff(t, "-baseline", basePath, "-current", badPath)
	if code == 0 {
		t.Fatalf("regressed gate exited 0:\n%s", out)
	}
	if !strings.Contains(out, "REGRESSION") || !strings.Contains(out, "efficiency") {
		t.Fatalf("regression not reported:\n%s", out)
	}
}

func TestBadUsageExitsTwo(t *testing.T) {
	if out, code := runScalediff(t, "-alg", "quicksort"); code != 2 {
		t.Fatalf("unknown algorithm exited %d:\n%s", code, out)
	}
	if out, code := runScalediff(t, "-baseline", "/does/not/exist", "-current", "/does/not/exist"); code != 2 {
		t.Fatalf("missing curve files exited %d:\n%s", code, out)
	}
	if out, code := runScalediff(t, "-degrade", "no-such-phase"); code != 2 {
		t.Fatalf("unknown phase exited %d:\n%s", code, out)
	}
}

func TestOutputFileAndWriteFailure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "diff.txt")
	out, code := runScalediff(t, "-alg", "matmul", "-n", "32", "-q", "2", "-o", path)
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "scaling diff") {
		t.Fatalf("report file wrong:\n%s", data)
	}

	if _, err := os.Stat("/dev/full"); err == nil {
		out, code := runScalediff(t, "-alg", "matmul", "-n", "32", "-q", "2", "-o", "/dev/full")
		if code == 0 {
			t.Fatalf("ENOSPC write exited 0:\n%s", out)
		}
	}
}
