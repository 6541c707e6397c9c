package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// The test binary re-executes itself with TRACE_RUN_MAIN=1 so main() runs
// exactly as shipped, flag parsing and exit codes included.
func TestMain(m *testing.M) {
	if os.Getenv("TRACE_RUN_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

func runTrace(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "TRACE_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	code := 0
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("trace %v did not run: %v\n%s", args, err, out)
		}
		code = ee.ExitCode()
	}
	return string(out), code
}

func TestBadUsageExitsTwo(t *testing.T) {
	out := filepath.Join(t.TempDir(), "t.json")
	for _, args := range [][]string{
		{"-alg", "nope", "-out", out},
		{"-machine", "nope", "-out", out},
		{"-no-such-flag"},
		{"-c2", "2", "-faults", "-out", out},
		{"-alg", "caps", "-c2", "2", "-out", out},
		{"-c2", "-1", "-out", out},
		{"-alg", "nbody", "-p", "9", "-c", "2", "-c2", "1", "-out", out}, // p·c2/c = 4.5
	} {
		if text, code := runTrace(t, args...); code != 2 {
			t.Errorf("%v: exit %d, want 2:\n%s", args, code, text)
		}
	}
}

func TestWriteFailureExitsOne(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("/dev/full not available")
	}
	out, code := runTrace(t, "-alg", "matmul", "-q", "2", "-n", "16", "-out", "/dev/full")
	if code != 1 {
		t.Fatalf("trace to /dev/full: exit %d, want 1:\n%s", code, out)
	}
	if !strings.Contains(out, "trace:") {
		t.Fatalf("no write-failure diagnostic:\n%s", out)
	}
}

func TestSelfcheckPrintsUtilizationAndPower(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.json")
	out, code := runTrace(t, "-alg", "matmul", "-q", "2", "-c", "1", "-n", "16", "-selfcheck", "-out", path)
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	for _, want := range []string{
		"utilization: min ", "across 4 ranks",
		"power: peak ", "(E/T), peak/average ",
		"selfcheck passed",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output misses %q:\n%s", want, out)
		}
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("trace file not written: %v", err)
	}
}

// A bare -alg caps must pick a size its seven ranks can split, and a size
// they cannot is a usage error (exit 2) naming the split, not a failed run.
func TestCAPSDefaultFlagsRun(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.json")
	out, code := runTrace(t, "-alg", "caps", "-out", path)
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "across 7 ranks") {
		t.Errorf("default caps run is not the k=1 point:\n%s", out)
	}
}

func TestCAPSBadShapeNamesTheSplit(t *testing.T) {
	out, code := runTrace(t, "-alg", "caps", "-n", "128", "-k", "1", "-out", filepath.Join(t.TempDir(), "t.json"))
	if code != 2 {
		t.Fatalf("exit %d, want 2:\n%s", code, out)
	}
	if !strings.Contains(out, "quadrant 4096 not divisible by group 7") || strings.Contains(out, "last 256 events") {
		t.Errorf("want the shape error alone:\n%s", out)
	}
}

// n-body at p ≤ 0 is a run failure with the package's own error, not a
// divide-by-zero panic.
func TestNBodyZeroRanksExitsOne(t *testing.T) {
	for _, p := range []string{"0", "-1"} {
		out, code := runTrace(t, "-alg", "nbody", "-p", p, "-out", filepath.Join(t.TempDir(), "t.json"))
		if code != 1 {
			t.Fatalf("-p %s: exit %d, want 1:\n%s", p, code, out)
		}
		if !strings.Contains(out, "nbody:") || strings.Contains(out, "panic") {
			t.Errorf("-p %s: want the nbody: error and no panic:\n%s", p, out)
		}
	}
}

// -c2 prints the phase diff after the summary: for matmul c=1 -> 4 the
// work-bearing phase scales, the c=4 side's replicate/reduce phases appear
// one-sided, and p=64 is the plateau end; for n-body p scales by c2/c.
func TestC2PrintsPhaseDiff(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.json")
	for _, tc := range []struct {
		args []string
		want []string
	}{
		{[]string{"-alg", "matmul", "-n", "96", "-q", "4", "-c", "1", "-c2", "4"},
			[]string{"scaling diff p=16 -> p=64", "multiply-shift", "replicate", "plateau end p* = 64"}},
		{[]string{"-alg", "nbody", "-n", "256", "-p", "8", "-c", "1", "-c2", "2"},
			[]string{"scaling diff p=8 -> p=16", "force-shift", "scaling bottleneck: reduce"}},
		{[]string{"-alg", "matmul", "-n", "32", "-q", "2", "-c2", "1"},
			[]string{"scaling diff p=4 -> p=4", "all phases within tolerance"}},
	} {
		out, code := runTrace(t, append(tc.args, "-out", path)...)
		if code != 0 {
			t.Fatalf("%v: exit %d:\n%s", tc.args, code, out)
		}
		summary, diff, ok := strings.Cut(out, "\nscaling diff ")
		if !ok || !strings.Contains(summary, "host wall time") {
			t.Fatalf("%v: no diff after the summary:\n%s", tc.args, out)
		}
		for _, want := range tc.want {
			if !strings.Contains("scaling diff "+diff, want) {
				t.Errorf("%v: diff misses %q:\n%s", tc.args, want, diff)
			}
		}
	}
}
