package main

import (
	"os"
	"os/exec"
	"regexp"
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

// elapsedLine matches the only nondeterministic output: the wall-clock
// footer. Tests normalize it before comparing runs.
var elapsedLine = regexp.MustCompile(`Generated in \d+\.\d+s`)

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
	// Every DESIGN.md experiment must appear exactly once.
	for _, sec := range []string{
		"E1 ", "E2 ", "E3 ", "E4 ", "E5 ", "E6 ", "E7–E9 ", "E10 ",
		"E11 ", "E12 ", "E13 ", "E14 ", "E15 ", "E16 ", "E17 ", "E18 ",
		"E19 ", "E20 ", "E21 ",
	} {
		if n := strings.Count(out, "\n## "+sec); n != 1 {
			t.Errorf("section %q appears %d times, want 1", sec, n)
		}
	}
	if !elapsedLine.MatchString(out) {
		t.Error("report missing the elapsed-time footer")
	}
}

func TestReportDeterministic(t *testing.T) {
	// Everything is virtual time and seeded data, so two runs must agree
	// bit for bit once the wall-clock footer is normalized.
	a := elapsedLine.ReplaceAllString(runReproduce(t), "Generated in X")
	b := elapsedLine.ReplaceAllString(runReproduce(t), "Generated in X")
	if a != b {
		t.Error("two reproduce runs differ beyond the elapsed-time footer")
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
	// REPORT.md is the committed output of this command; it may differ
	// from a fresh run only in the wall-clock footer.
	want, err := os.ReadFile("../../REPORT.md")
	if err != nil {
		t.Fatal(err)
	}
	got := elapsedLine.ReplaceAllString(runReproduce(t), "Generated in X")
	if norm := elapsedLine.ReplaceAllString(string(want), "Generated in X"); got != norm {
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
