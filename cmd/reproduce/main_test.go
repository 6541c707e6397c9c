package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// The test binary re-executes itself with REPRODUCE_RUN_MAIN=1 so main()
// runs exactly as shipped (flag parsing and exit codes included) without a
// go toolchain at test time.
func TestMain(m *testing.M) {
	if os.Getenv("REPRODUCE_RUN_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

func runReproduce(t *testing.T, args ...string) string {
	t.Helper()
	out, code := runReproduceCode(t, args...)
	if code != 0 {
		t.Fatalf("reproduce %v exited %d:\n%s", args, code, out)
	}
	return out
}

func runReproduceCode(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "REPRODUCE_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	code := 0
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("reproduce %v did not run: %v\n%s", args, err, out)
		}
		code = ee.ExitCode()
	}
	return string(out), code
}

func TestReportCompleteAndClean(t *testing.T) {
	out := runReproduce(t)
	if strings.Contains(out, "**FAILED:**") {
		t.Fatalf("report contains failures:\n%s", out)
	}
	// Every registry entry must appear exactly once.
	for _, e := range experiments {
		if n := strings.Count(out, "\n## "+e.id+" — "); n != 1 {
			t.Errorf("section %q appears %d times, want 1", e.id, n)
		}
	}
}

func TestReportDeterministic(t *testing.T) {
	// Everything is virtual time and seeded data, so two runs must agree
	// bit for bit.
	if runReproduce(t) != runReproduce(t) {
		t.Error("two reproduce runs differ")
	}
}

// section returns the report's header (everything before the first
// section) and the section whose heading starts with id.
func section(t *testing.T, report, id string) (header, body string) {
	t.Helper()
	header, rest, ok := strings.Cut(report, "\n## ")
	if !ok {
		t.Fatalf("report has no sections:\n%s", report)
	}
	_, body, ok = strings.Cut("\n## "+rest, "\n## "+id+" — ")
	if !ok {
		t.Fatalf("report has no section %s", id)
	}
	body, _, _ = strings.Cut(body, "\n## ")
	return header, "\n## " + id + " — " + body
}

// TestSelectE23MatchesFullReport: -e E23 writes the header and exactly the
// E23 section of a full run, byte for byte.
func TestSelectE23MatchesFullReport(t *testing.T) {
	header, want := section(t, runReproduce(t), "E23")
	got := runReproduce(t, "-e", "E23")
	if got != header+want {
		t.Errorf("-e E23 differs from the E23 section of a full run:\n%s", got)
	}
	// An ASCII hyphen stands for the en dash, and the selection runs in
	// registry order.
	if got := runReproduce(t, "-e", "E7-E9,E1"); !strings.Contains(got, "## E1 — ") ||
		!strings.Contains(got, "## E7–E9 — ") || strings.Index(got, "## E1 — ") > strings.Index(got, "## E7–E9 — ") {
		t.Errorf("-e E7-E9,E1 did not select E1 then E7–E9:\n%.400s", got)
	}
}

func TestUnknownExperimentExitsTwo(t *testing.T) {
	for _, sel := range []string{"E99", "", "E2,E99"} {
		out, code := runReproduceCode(t, "-e", sel)
		if code != 2 {
			t.Errorf("-e %q: exit %d, want 2:\n%s", sel, code, out)
		}
		if !strings.Contains(out, "known: E1, E2,") || !strings.Contains(out, "E23, Ablations, Rect") {
			t.Errorf("-e %q: the known ids are not listed:\n%s", sel, out)
		}
	}
}

func TestReportToFile(t *testing.T) {
	path := t.TempDir() + "/report.md"
	runReproduce(t, "-o", path)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "# Reproduction report") {
		t.Errorf("file output missing the report header: %.80s", data)
	}
}

func TestReportMatchesCommitted(t *testing.T) {
	// REPORT.md is the committed output of this command.
	want, err := os.ReadFile("../../REPORT.md")
	if err != nil {
		t.Fatal(err)
	}
	if runReproduce(t) != string(want) {
		t.Error("REPORT.md is stale; regenerate it with `go run ./cmd/reproduce -o REPORT.md`")
	}
}

func TestWriteFailureExitsOne(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("/dev/full not available")
	}
	out, code := runReproduceCode(t, "-o", "/dev/full")
	if code != 1 {
		t.Fatalf("write to /dev/full: exit %d, want 1:\n%s", code, out)
	}
	if !strings.Contains(out, "reproduce:") {
		t.Fatalf("no write-failure diagnostic:\n%s", out)
	}
}

// TestUnwritableOutputExitsOne: failing to open the output at all is exit
// 1, before any experiment runs.
func TestUnwritableOutputExitsOne(t *testing.T) {
	out, code := runReproduceCode(t, "-e", "E1", "-o", filepath.Join(t.TempDir(), "no", "such", "dir", "out.md"))
	if code != 1 {
		t.Fatalf("unwritable -o: exit %d, want 1:\n%s", code, out)
	}
}

// The tests below hold the E23 resilience section to the contracts it had
// as a command of its own: every table printed, the verdicts right, the
// seeded fault plans replayed bit for bit, and the output pinned.

func TestE23PrintsEveryTable(t *testing.T) {
	out := runReproduce(t, "-e", "E23")
	for _, want := range []string{
		"E23a: energy-priced ABFT 2.5D matmul",
		"E23b: energy-priced checkpoint/rollback stencil",
		"E23c: self-healing SUMMA over ARQ",
		"E23d: virtual-time heartbeat failure detection",
		"E23e: energy-priced recovery controller",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("E23 section missing the %q table", want)
		}
	}
}

func TestE23DropsRecoverSilently(t *testing.T) {
	e23c := table(t, runReproduce(t, "-e", "E23"), "E23c", "E23d")
	if !strings.Contains(e23c, "silent drops") || !strings.Contains(e23c, "| recovered |") {
		t.Errorf("no drop scenario recovered:\n%s", e23c)
	}
	if strings.Contains(e23c, "OUTPUT DIVERGED") {
		t.Errorf("a recovered run diverged from the fault-free product:\n%s", e23c)
	}
}

func TestE23DetectorVerdicts(t *testing.T) {
	e23d := table(t, runReproduce(t, "-e", "E23"), "E23d", "E23e")
	if strings.Contains(e23d, "UNEXPECTED VERDICT") {
		t.Errorf("a detection scenario produced the wrong verdict:\n%s", e23d)
	}
	for _, want := range []string{"peer dies (exit observed)", "peer wedges silently", "long compute with heartbeats"} {
		if !strings.Contains(e23d, want) {
			t.Errorf("E23d missing scenario %q", want)
		}
	}
}

func TestE23RecoverMarksArgmin(t *testing.T) {
	e23e := table(t, runReproduce(t, "-e", "E23"), "E23e", "")
	if n := strings.Count(e23e, "<== argmin E"); n != 4 {
		t.Errorf("want one argmin marker per recovery context (4), got %d:\n%s", n, e23e)
	}
	if !strings.Contains(e23e, "needs a live replica") {
		t.Errorf("infeasible strategies should carry their reason:\n%s", e23e)
	}
}

// TestE23Deterministic is the replay guarantee: the seeded chaos plans must
// reproduce every retransmit count and priced joule bit for bit across runs.
func TestE23Deterministic(t *testing.T) {
	if runReproduce(t, "-e", "E23") != runReproduce(t, "-e", "E23") {
		t.Error("two -e E23 runs differ")
	}
}

// TestE23MatchesCommittedReport pins every E23 figure (times, joules,
// ratios, statuses) to the E23 section of the committed REPORT.md.
func TestE23MatchesCommittedReport(t *testing.T) {
	committed, err := os.ReadFile("../../REPORT.md")
	if err != nil {
		t.Fatal(err)
	}
	header, want := section(t, string(committed), "E23")
	if got := runReproduce(t, "-e", "E23"); got != header+want {
		t.Errorf("E23 differs from REPORT.md; regenerate it with `go run ./cmd/reproduce -o REPORT.md`:\n%s", got)
	}
}

func TestE23ReportToFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "e23.md")
	if out := runReproduce(t, "-e", "E23", "-o", path); out != "" {
		t.Errorf("-o still wrote to stdout:\n%s", out)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("-o did not write the report: %v", err)
	}
	if !strings.Contains(string(data), "\n## E23 — ") {
		t.Errorf("report file misses the E23 section:\n%s", data)
	}
}

// TestE23WriteFailureExitsOne: a selected section that cannot be written
// exits 1, not silently 0. /dev/full fails every write with ENOSPC.
func TestE23WriteFailureExitsOne(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("/dev/full not available")
	}
	out, code := runReproduceCode(t, "-e", "E23", "-o", "/dev/full")
	if code != 1 {
		t.Fatalf("write to /dev/full: exit %d, want 1:\n%s", code, out)
	}
	if !strings.Contains(out, "reproduce:") {
		t.Errorf("no write-failure diagnostic:\n%s", out)
	}
}

// table returns the text of the E23 table whose caption starts with
// "**"+id, up to the caption of next (or the end when next is "").
func table(t *testing.T, report, id, next string) string {
	t.Helper()
	_, body, ok := strings.Cut(report, "**"+id+":")
	if !ok {
		t.Fatalf("report has no %s table:\n%s", id, report)
	}
	if next != "" {
		body, _, _ = strings.Cut(body, "**"+next+":")
	}
	return body
}

// TestCurvesSection: the Curves section renders one row per QuickCurves
// point, covering every curve family.
func TestCurvesSection(t *testing.T) {
	out := runReproduce(t, "-e", "Curves")
	for _, want := range []string{
		"| strong | matmul-2.5d |", "| weak | matmul-2.5d |",
		"| strong | nbody |", "| weak | nbody |", "| weak | fft-tree |",
		"| efficiency | predicted |", "classical/memory-independent",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Curves section misses %q:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "\n| strong |") + strings.Count(out, "\n| weak |"); n != 15 {
		t.Errorf("Curves section has %d rows, want 15:\n%s", n, out)
	}
}

// TestDiagnoseNamesDegradedPhase: the degraded multiply-shift phase is the
// flagged bottleneck and the undegraded align phase scales on prediction.
func TestDiagnoseNamesDegradedPhase(t *testing.T) {
	out := runReproduce(t, "-e", "Diagnose")
	for _, want := range []string{
		"scaling diff p=16 -> p=16",
		"multiply-shift     4.4912e-05   9.5088e-05     2.12        1      0.472 +5.02e-05  << BOTTLENECK",
		"align               4.048e-06    4.048e-06        1        1      1.000        +0\n",
		"scaling bottleneck: multiply-shift",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Diagnose section misses %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "**FAILED:**") {
		t.Errorf("Diagnose failed:\n%s", out)
	}
}
