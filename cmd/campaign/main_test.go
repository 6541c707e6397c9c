package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"perfscale/internal/campaign"
)

// The test binary re-executes itself with CAMPAIGN_RUN_MAIN=1 so main()
// runs exactly as shipped, flag parsing, signal handling and exit codes
// included.
func TestMain(m *testing.M) {
	if os.Getenv("CAMPAIGN_RUN_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

func runCampaign(t *testing.T, dir string, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "CAMPAIGN_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	code := 0
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("campaign %v did not run: %v\n%s", args, err, out)
		}
		code = ee.ExitCode()
	}
	return string(out), code
}

// redFlags is the seeded known-violation: the under-provisioned failure
// detector from the campaign package's red/green tests, as CLI flags.
var redFlags = []string{
	"-n", "16", "-q", "4", "-random-plans", "2",
	"-detector-rtos", "4", "-detector-misses", "2",
	"-max-attempts", "3", "-max-rto-factor", "8",
}

func TestSweepFindsShrinksAndReplays(t *testing.T) {
	dir := t.TempDir()
	out, code := runCampaign(t, dir, append([]string{"-sweep"}, redFlags...)...)
	if code != 0 {
		t.Fatalf("sweep exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "VIOLATES completes") {
		t.Fatalf("sweep did not find the seeded detector violation:\n%s", out)
	}
	if !strings.Contains(out, "shrunk") {
		t.Fatalf("sweep did not shrink the finding:\n%s", out)
	}

	art := filepath.Join(dir, "campaign-artifacts", "repro-000.json")
	r, err := campaign.LoadFile(art)
	if err != nil {
		t.Fatalf("artifact missing or unreadable: %v", err)
	}
	if r.MinimizedCoords >= r.DiscoveredCoords {
		t.Fatalf("artifact not minimized: %d → %d coords", r.DiscoveredCoords, r.MinimizedCoords)
	}

	out, code = runCampaign(t, dir, "-replay", art)
	if code != 0 || !strings.Contains(out, "reproduces bitwise") {
		t.Fatalf("replay exit %d:\n%s", code, out)
	}

	// A tampered artifact must fail to replay with exit 1.
	r.Expected.StatsDigest = "0000000000000000"
	data, err := r.Encode()
	if err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "tampered.json")
	if err := os.WriteFile(bad, data, 0o644); err != nil {
		t.Fatal(err)
	}
	out, code = runCampaign(t, dir, "-replay", bad)
	if code != 1 || !strings.Contains(out, "DOES NOT REPRODUCE") {
		t.Fatalf("tampered replay exit %d, want 1:\n%s", code, out)
	}
}

func TestShrinkRewritesArtifactInPlace(t *testing.T) {
	dir := t.TempDir()
	if out, code := runCampaign(t, dir, append([]string{"-sweep", "-budget", "40"}, redFlags...)...); code != 0 {
		t.Fatalf("sweep exit %d:\n%s", code, out)
	}
	art := filepath.Join(dir, "campaign-artifacts", "repro-000.json")
	out, code := runCampaign(t, dir, "-shrink", art, "-shrink-budget", "120")
	if code != 0 || !strings.Contains(out, "re-minimized") {
		t.Fatalf("shrink exit %d:\n%s", code, out)
	}
	if out, code = runCampaign(t, dir, "-replay", art); code != 0 {
		t.Fatalf("replay after shrink exit %d:\n%s", code, out)
	}
}

func TestBadFlagsExitTwo(t *testing.T) {
	dir := t.TempDir()
	cases := [][]string{
		{},                              // no mode
		{"-sweep", "-resume"},           // two modes
		{"-sweep", "-runtime", "event"}, // a flag that no longer exists
		{"-sweep", "-machine", "nope"},
		{"-sweep", "-n", "15", "-q", "4"}, // n not divisible by q
		{"-sweep", "-drop", "1.5"},
	}
	for _, args := range cases {
		if out, code := runCampaign(t, dir, args...); code != 2 {
			t.Errorf("campaign %v: exit %d, want 2\n%s", args, code, out)
		}
	}
}

// TestInterruptAndResume sends SIGINT mid-sweep (the documented contract:
// exit 130, checkpoint saved), resumes, and requires the final checkpoint
// byte-identical to an uninterrupted reference run of the same flags.
func TestInterruptAndResume(t *testing.T) {
	// Enough seeded compound cells to keep the sweep running while the
	// signal lands; the stock target keeps them all green and fast.
	flags := []string{"-sweep", "-n", "16", "-q", "4", "-random-plans", "150"}

	refDir := t.TempDir()
	if out, code := runCampaign(t, refDir, flags...); code != 0 {
		t.Fatalf("reference sweep exit %d:\n%s", code, out)
	}
	refState, err := os.ReadFile(filepath.Join(refDir, "campaign.state.json"))
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], flags...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "CAMPAIGN_RUN_MAIN=1")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Interrupt once the sweep is provably mid-corpus.
	scanner := bufio.NewScanner(stdout)
	interrupted := false
	for scanner.Scan() {
		if !interrupted && strings.Contains(scanner.Text(), "cell ") {
			if err := cmd.Process.Signal(syscall.SIGINT); err != nil {
				t.Fatal(err)
			}
			interrupted = true
		}
	}
	if !interrupted {
		t.Fatal("sweep produced no cell lines to interrupt at")
	}
	err = cmd.Wait()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 130 {
		t.Fatalf("interrupted sweep: %v, want exit 130", err)
	}

	// The checkpoint must be a valid mid-sweep state…
	data, err := os.ReadFile(filepath.Join(dir, "campaign.state.json"))
	if err != nil {
		t.Fatalf("no checkpoint after SIGINT: %v", err)
	}
	var st campaign.State
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatalf("torn checkpoint: %v", err)
	}
	if st.Completed {
		t.Fatal("interrupted checkpoint claims completion")
	}

	// …and resuming must land on the reference corpus byte for byte.
	if out, code := runCampaign(t, dir, "-resume"); code != 0 {
		t.Fatalf("resume exit %d:\n%s", code, out)
	}
	finalState, err := os.ReadFile(filepath.Join(dir, "campaign.state.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(refState, finalState) {
		t.Error("resumed checkpoint differs from the uninterrupted reference run")
	}
}
