package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// The test binary re-executes itself with FAULTTOL_RUN_MAIN=1 so main()
// runs exactly as shipped, flag parsing and exit codes included.
func TestMain(m *testing.M) {
	if os.Getenv("FAULTTOL_RUN_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

func runFaulttol(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "FAULTTOL_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("faulttol %v failed: %v\n%s", args, err, out)
	}
	return string(out)
}

func TestDefaultPrintsEverything(t *testing.T) {
	out := runFaulttol(t, "-n", "48")
	for _, want := range []string{
		"E23a: energy-priced ABFT 2.5D matmul",
		"E23b: energy-priced checkpoint/rollback stencil",
		"E23c: self-healing SUMMA over ARQ",
		"E23d: virtual-time heartbeat failure detection",
		"E23e: energy-priced recovery controller",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("default output missing %q", want)
		}
	}
}

func TestDropsMasksSilently(t *testing.T) {
	out := runFaulttol(t, "-drops", "-n", "48")
	if strings.Contains(out, "E23a") || strings.Contains(out, "E23d") {
		t.Errorf("-drops leaked other experiments:\n%s", out)
	}
	if !strings.Contains(out, "recovered") {
		t.Errorf("no drop scenario recovered:\n%s", out)
	}
	if strings.Contains(out, "OUTPUT DIVERGED") {
		t.Errorf("a recovered run diverged from the fault-free product:\n%s", out)
	}
}

func TestDetectorVerdicts(t *testing.T) {
	out := runFaulttol(t, "-detector")
	if strings.Contains(out, "UNEXPECTED VERDICT") {
		t.Errorf("a detection scenario produced the wrong verdict:\n%s", out)
	}
	for _, want := range []string{"peer dies (exit observed)", "peer wedges silently", "long compute with heartbeats"} {
		if !strings.Contains(out, want) {
			t.Errorf("detector output missing scenario %q", want)
		}
	}
}

func TestRecoverMarksArgmin(t *testing.T) {
	out := runFaulttol(t, "-recover")
	if n := strings.Count(out, "<== argmin E"); n != 4 {
		t.Errorf("want one argmin marker per context (4), got %d:\n%s", n, out)
	}
	if !strings.Contains(out, "needs a live replica") {
		t.Errorf("infeasible strategies should carry their reason:\n%s", out)
	}
}

func TestCSVMode(t *testing.T) {
	out := runFaulttol(t, "-recover", "-csv")
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 2 {
		t.Fatalf("CSV output too short:\n%s", out)
	}
	if !strings.HasPrefix(lines[0], "n,") {
		t.Errorf("CSV header %q", lines[0])
	}
	if strings.Contains(out, "---") {
		t.Error("CSV mode leaked table rendering")
	}
}

// TestDropsDeterministic is the replay guarantee at the CLI surface: the
// seeded chaos plans must reproduce every retransmit count and priced
// joule bit for bit across runs.
func TestDropsDeterministic(t *testing.T) {
	if runFaulttol(t, "-drops", "-n", "48") != runFaulttol(t, "-drops", "-n", "48") {
		t.Error("two -drops runs differ")
	}
}

// TestBadMachineExitStatus checks the subprocess exit contract: an
// unresolvable machine preset must exit non-zero with a diagnostic.
func TestBadMachineExitStatus(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-machine", "no-such-preset")
	cmd.Env = append(os.Environ(), "FAULTTOL_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("unknown machine preset should fail, got:\n%s", out)
	}
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
		t.Errorf("want exit code 2, got %v", err)
	}
}

func TestOutputFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.csv")
	runFaulttol(t, "-recover", "-csv", "-o", path)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("-o did not write the report: %v", err)
	}
	if !strings.HasPrefix(string(data), "n,") {
		t.Errorf("report file does not start with the CSV header:\n%s", data)
	}
}

// TestWriteFailureExitStatus: a report that cannot be written must exit 1,
// not succeed silently. /dev/full fails every write with ENOSPC.
func TestWriteFailureExitStatus(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("/dev/full not available on this platform")
	}
	cmd := exec.Command(os.Args[0], "-recover", "-csv", "-o", "/dev/full")
	cmd.Env = append(os.Environ(), "FAULTTOL_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 1 {
		t.Fatalf("write to /dev/full: %v, want exit 1\n%s", err, out)
	}
	if !strings.Contains(string(out), "writing report") {
		t.Errorf("missing write diagnostic:\n%s", out)
	}
}

// TestUnwritableOutputExitStatus: failing to open the output at all is
// also exit 1, before any experiment runs.
func TestUnwritableOutputExitStatus(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-recover", "-o", filepath.Join(t.TempDir(), "no", "such", "dir", "out.txt"))
	cmd.Env = append(os.Environ(), "FAULTTOL_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Fatalf("unwritable -o: %v, want exit 1\n%s", err, out)
	}
}

// TestE23MatchesCommitted pins E23a and E23b: testdata/e23.txt is the
// committed output of `faulttol -abft -ckpt`, and every figure in it —
// times, joules, ratios, statuses — is a deterministic function of the
// fault plans. After an intended change, regenerate it with
// `go run ./cmd/faulttol -abft -ckpt -o cmd/faulttol/testdata/e23.txt`.
func TestE23MatchesCommitted(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "e23.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got := runFaulttol(t, "-abft", "-ckpt"); got != string(want) {
		t.Errorf("E23 output differs from testdata/e23.txt:\n%s", got)
	}
}
