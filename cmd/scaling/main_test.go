package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"perfscale/internal/analytics"
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
	path := filepath.Join(t.TempDir(), "curves.txt")
	out, code := runScaling(t, "-curves", "-o", path)
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "Efficiency-vs-p curves") {
		t.Fatalf("report file misses the curves table:\n%s", data)
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

// TestCurvesJSONMatchesBaseline pins the scaling gate's input: a fresh
// `-curves -json` sweep reproduces the committed BENCH_scaling.json byte
// for byte (the rows are virtual-time quantities), and that baseline keeps
// covering every curve family.
func TestCurvesJSONMatchesBaseline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "curves.json")
	out, code := runScaling(t, "-curves", "-json", "-o", path)
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("../../BENCH_scaling.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("fresh curve file differs from BENCH_scaling.json; after an intended model change regenerate it with `go run ./cmd/scaling -curves -json -o BENCH_scaling.json`")
	}

	rows, err := analytics.LoadCurves(path)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, r := range rows {
		seen[r.Family+"/"+r.Algorithm] = true
	}
	for _, fam := range []string{
		"strong/matmul-2.5d", "weak/matmul-2.5d",
		"strong/nbody", "weak/nbody", "weak/fft-tree",
	} {
		if !seen[fam] {
			t.Fatalf("curve file misses %s (have %v)", fam, seen)
		}
	}
}

// TestGateMode: against the committed baseline the gate passes and its -o
// file is that baseline byte for byte; against a baseline with one row's
// efficiency raised, the freshly measured row regresses and the gate
// exits 1.
func TestGateMode(t *testing.T) {
	dir := t.TempDir()
	fresh := filepath.Join(dir, "fresh.json")
	out, code := runScaling(t, "-baseline", "../../BENCH_scaling.json", "-o", fresh)
	if code != 0 || !strings.Contains(out, "no scaling regressions") {
		t.Fatalf("clean gate exited %d:\n%s", code, out)
	}
	got, err := os.ReadFile(fresh)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("../../BENCH_scaling.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("the gate's -o curve file differs from BENCH_scaling.json")
	}

	var f analytics.CurveFile
	if err := json.Unmarshal(want, &f); err != nil {
		t.Fatal(err)
	}
	f.Curves[1].Efficiency *= 1.25
	var buf bytes.Buffer
	if err := analytics.WriteCurves(&buf, f.Machine, f.Curves); err != nil {
		t.Fatal(err)
	}
	edited := filepath.Join(dir, "edited.json")
	if err := os.WriteFile(edited, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	out, code = runScaling(t, "-baseline", edited)
	if code != 1 {
		t.Fatalf("gate against an edited baseline exited %d, want 1:\n%s", code, out)
	}
	if !strings.Contains(out, "REGRESSION") || !strings.Contains(out, "efficiency") {
		t.Fatalf("regression not reported:\n%s", out)
	}
}

// TestDegradedPhaseNamedBottleneck is the acceptance-criterion scenario on
// the CLI: a fault-plan-slowed shift phase must be named as the scaling
// bottleneck.
func TestDegradedPhaseNamedBottleneck(t *testing.T) {
	out, code := runScaling(t, "-alg", "matmul", "-n", "64", "-q", "4",
		"-degrade", "multiply-shift", "-degrade-beta", "50")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "scaling bottleneck: multiply-shift") {
		t.Fatalf("degraded phase not named:\n%s", out)
	}
}

func TestStrongScalingDiff(t *testing.T) {
	out, code := runScaling(t, "-alg", "matmul", "-n", "96", "-q", "4", "-c", "1", "-c2", "4")
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
	out, code = runScaling(t, "-alg", "matmul", "-n", "64", "-q", "4")
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
	out, code := runScaling(t, "-alg", "fft", "-n", "256", "-q", "4", "-json")
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

func TestBadUsageExitsTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-machine", "nope"},
		{"-curves", "-runtime", "event"}, // retired flag
		{"-weak"},                        // retired flag: E22 is in cmd/reproduce
		{"-baseline", "../../BENCH_scaling.json", "-json"},
		{"-baseline", "../../BENCH_scaling.json", "-curves"},
	} {
		if out, code := runScaling(t, args...); code != 2 {
			t.Fatalf("%v: exit %d, want 2:\n%s", args, code, out)
		}
	}
}

// TestDiffBadUsageExitsTwo: the phase-diff and gate modes reject an unknown
// algorithm, a missing baseline and an unknown degraded phase with exit 2.
func TestDiffBadUsageExitsTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-alg", "quicksort"},
		{"-baseline", "/does/not/exist"},
		{"-degrade", "no-such-phase"},
	} {
		if out, code := runScaling(t, args...); code != 2 {
			t.Fatalf("%v: exit %d, want 2:\n%s", args, code, out)
		}
	}
}

func TestDiffOutputFileAndWriteFailure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "diff.txt")
	out, code := runScaling(t, "-alg", "matmul", "-n", "32", "-q", "2", "-o", path)
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
		out, code := runScaling(t, "-alg", "matmul", "-n", "32", "-q", "2", "-o", "/dev/full")
		if code != 1 || !strings.Contains(out, "scaling:") {
			t.Fatalf("ENOSPC write exited %d, want 1 with a diagnostic:\n%s", code, out)
		}
	}
}

func TestWriteFailureExitsNonZero(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("/dev/full not available")
	}
	for _, args := range [][]string{
		{"-curves", "-json"},
		{"-baseline", "../../BENCH_scaling.json"},
	} {
		out, code := runScaling(t, append(args, "-o", "/dev/full")...)
		if code != 1 {
			t.Fatalf("%v: write to /dev/full exited %d, want 1:\n%s", args, code, out)
		}
		if !strings.Contains(out, "scaling:") {
			t.Fatalf("%v: no write-failure diagnostic:\n%s", args, out)
		}
	}
}
