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
