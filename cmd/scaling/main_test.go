package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// The test binary re-executes itself with SCALING_RUN_MAIN=1 so main()
// runs exactly as shipped, flag parsing and exit codes included.
func TestMain(m *testing.M) {
	if os.Getenv("SCALING_RUN_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

func runScaling(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "SCALING_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	code := 0
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("scaling %v did not run: %v\n%s", args, err, out)
		}
		code = ee.ExitCode()
	}
	return string(out), code
}

func TestOutputFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "weak.txt")
	out, code := runScaling(t, "-weak", "-o", path)
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "weak scaling") {
		t.Fatalf("report misses weak-scaling section:\n%s", data)
	}
}

func TestCurvesMode(t *testing.T) {
	out, code := runScaling(t, "-curves")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	for _, want := range []string{"Efficiency-vs-p curves", "matmul-2.5d", "fft-tree", "efficiency"} {
		if !strings.Contains(out, want) {
			t.Fatalf("curves output misses %q:\n%s", want, out)
		}
	}
}

func TestBadUsageExitsTwo(t *testing.T) {
	if out, code := runScaling(t, "-machine", "nope"); code != 2 {
		t.Fatalf("unknown machine: exit %d, want 2:\n%s", code, out)
	}
	if out, code := runScaling(t, "-curves", "-runtime", "event"); code != 2 {
		t.Fatalf("retired -runtime flag: exit %d, want 2:\n%s", code, out)
	}
}

func TestWriteFailureExitsNonZero(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("/dev/full not available")
	}
	out, code := runScaling(t, "-weak", "-o", "/dev/full")
	if code == 0 {
		t.Fatalf("write to /dev/full succeeded:\n%s", out)
	}
	if !strings.Contains(out, "scaling:") {
		t.Fatalf("no write-failure diagnostic:\n%s", out)
	}
}
