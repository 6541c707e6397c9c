package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"perfscale/internal/analytics"
)

// The test binary re-executes itself with BENCH_RUN_MAIN=1 so main() runs
// exactly as shipped, flag parsing and exit codes included.
func TestMain(m *testing.M) {
	if os.Getenv("BENCH_RUN_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

func runBench(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "BENCH_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	code := 0
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("bench %v did not run: %v\n%s", args, err, out)
		}
		code = ee.ExitCode()
	}
	return string(out), code
}

// TestScalingGate pins the acceptance criterion: the clean sweep passes
// against its own baseline, and a synthetically regressed baseline makes
// the gate exit non-zero.
func TestScalingGate(t *testing.T) {
	dir := t.TempDir()
	basePath := filepath.Join(dir, "baseline.json")
	out, code := runBench(t, "-curves-only", "-curves-out", basePath)
	if code != 0 {
		t.Fatalf("curve sweep failed (%d):\n%s", code, out)
	}

	// Clean gate: fresh sweep vs its own artifact passes (rows are
	// virtual-time quantities, so they reproduce bit-for-bit).
	out, code = runBench(t, "-curves-only", "-curves-out", filepath.Join(dir, "cur.json"),
		"-check-scaling", basePath)
	if code != 0 {
		t.Fatalf("clean gate exited %d:\n%s", code, out)
	}
	if !strings.Contains(out, "within tolerance") {
		t.Fatalf("gate verdict missing:\n%s", out)
	}

	// Regressed baseline: claim the baseline was 10% more efficient than
	// reality; the fresh sweep must fail the gate.
	base, err := analytics.LoadCurves(basePath)
	if err != nil {
		t.Fatal(err)
	}
	for i := range base {
		base[i].Efficiency *= 1.10
		base[i].SimT *= 0.90
	}
	regressedPath := filepath.Join(dir, "regressed.json")
	if err := analytics.WriteCurves(regressedPath, "simdefault", base); err != nil {
		t.Fatal(err)
	}
	out, code = runBench(t, "-curves-only", "-curves-out", filepath.Join(dir, "cur2.json"),
		"-check-scaling", regressedPath)
	if code == 0 {
		t.Fatalf("regressed gate exited 0:\n%s", out)
	}
	if !strings.Contains(out, "SCALING REGRESSION") {
		t.Fatalf("regressions not reported:\n%s", out)
	}

	// The artifact carries all three algorithm families.
	cur, err := analytics.LoadCurves(filepath.Join(dir, "cur.json"))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, r := range cur {
		seen[r.Family+"/"+r.Algorithm] = true
	}
	for _, want := range []string{
		"strong/matmul-2.5d", "weak/matmul-2.5d",
		"strong/nbody", "weak/nbody", "weak/fft-tree",
	} {
		if !seen[want] {
			t.Fatalf("curve artifact misses %s (have %v)", want, seen)
		}
	}
}
