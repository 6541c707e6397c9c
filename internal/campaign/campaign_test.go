package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"testing"
)

// redTarget is the campaign's canonical seeded violation: a failure
// detector provisioned at 4 RTOs with only 2 tolerated misses, a 3-attempt
// retransmission budget and an 8·RTO backoff ceiling. Under 25% background
// loss the detector converts survivable silence into a spurious
// peer-failure verdict; the stock 512·RTO/8-miss defaults mask the same
// loss completely.
func redTarget() Target {
	return Target{N: 16, Q: 4, MaxAttempts: 3, MaxRTOFactor: 8, DetectorRTOs: 4, DetectorMisses: 2}
}

// smallConfig keeps campaign tests fast: a few cells per sweep, tight
// shrink budgets.
func smallConfig(t Target) Config {
	return Config{
		Target:      t,
		RandomPlans: 2, MaxCrashCells: 2, MaxLinkCells: 4, MaxWindowCells: 2,
		MaxFindings: 2, ShrinkBudget: 80,
	}
}

func TestEnumerateSpaceDeterministic(t *testing.T) {
	tg := redTarget().withDefaults()
	sp1, clean1, err := tg.Enumerate(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sp2, clean2, err := tg.Enumerate(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if diff, same := clean1.identical(clean2); !same {
		t.Fatalf("clean enumeration runs differ: %s", diff)
	}
	j1, _ := json.Marshal(sp1)
	j2, _ := json.Marshal(sp2)
	if !bytes.Equal(j1, j2) {
		t.Fatalf("enumerated spaces differ:\n%s\n%s", j1, j2)
	}
	if len(sp1.Phases) != tg.Q {
		t.Errorf("enumerated %d phase marks, want %d panel phases", len(sp1.Phases), tg.Q)
	}
	if sp1.Phases[0].Name != "panel-0" {
		t.Errorf("first phase %q, want panel-0", sp1.Phases[0].Name)
	}
	if len(sp1.Links) == 0 || len(sp1.Windows) == 0 {
		t.Errorf("enumeration found %d links and %d timer windows, want both nonzero", len(sp1.Links), len(sp1.Windows))
	}
	if sp1.Ranks != 16 || sp1.Makespan <= 0 {
		t.Errorf("space ranks=%d makespan=%g", sp1.Ranks, sp1.Makespan)
	}
}

func TestBuildCellsDeterministicAndValid(t *testing.T) {
	cfg := smallConfig(redTarget()).withDefaults()
	sp, _, err := cfg.Target.Enumerate(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cells := BuildCells(cfg, sp)
	again := BuildCells(cfg, sp)
	j1, _ := json.Marshal(cells)
	j2, _ := json.Marshal(again)
	if !bytes.Equal(j1, j2) {
		t.Fatal("cell list is not a pure function of (Config, Space)")
	}
	if len(cells) == 0 {
		t.Fatal("no cells generated")
	}
	kinds := map[string]int{}
	classes := map[Class]int{}
	for i, c := range cells {
		if c.Seq != i {
			t.Errorf("cell %d has Seq %d", i, c.Seq)
		}
		if err := c.Plan.Validate(cfg.Target.Ranks()); err != nil {
			t.Errorf("cell %d (%s) has invalid plan: %v", i, c.Kind, err)
		}
		if w := coordWeight(c.Plan, cfg.Target.Ranks()); w <= 0 {
			t.Errorf("cell %d (%s) has coordinate weight %d", i, c.Kind, w)
		}
		kinds[c.Kind]++
		classes[c.Class]++
	}
	for _, k := range []string{"background", "compound", "crash-phase", "drop-link", "drop-link-hard", "degraded-window"} {
		if kinds[k] == 0 {
			t.Errorf("no %q cells generated (kinds: %v)", k, kinds)
		}
	}
	if classes[ClassMaskable] == 0 || classes[ClassGraceful] == 0 {
		t.Errorf("both invariant classes must appear, got %v", classes)
	}
	if cells[0].Kind != "background" {
		t.Errorf("first cell is %q, want the background-loss cell", cells[0].Kind)
	}
}

// TestCleanRunBitIdenticalAcrossBackends holds the clean run to the outcome
// the checked-in artifact recorded when both of the simulator's former
// backends produced it: whatever carries the ranks, the bits must not move.
func TestCleanRunBitIdenticalAcrossBackends(t *testing.T) {
	r, err := LoadFile("testdata/repro-golden.json")
	if err != nil {
		t.Fatal(err)
	}
	tg := redTarget().withDefaults()
	if tg != r.Target {
		t.Fatalf("the golden artifact's target %+v is no longer the red target %+v", r.Target, tg)
	}
	got, err := tg.Run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Completed {
		t.Fatalf("clean run must complete: %+v", got)
	}
	if diff, same := got.identical(&r.Clean); !same {
		t.Fatalf("clean run deviates from the recorded one: %s", diff)
	}
}

// TestCampaignRedThenGreen is the engine's end-to-end proof: the seeded
// under-provisioned detector is found by the very first cell, shrunk to a
// single link atom with strictly fewer fault coordinates, and the emitted
// artifact replays bitwise — while the identically-swept
// stock configuration sails through the same cell clean.
func TestCampaignRedThenGreen(t *testing.T) {
	// Red: the mis-provisioned detector.
	eng, err := New(smallConfig(redTarget()))
	if err != nil {
		t.Fatal(err)
	}
	st, err := eng.Run(RunOpts{Log: t.Logf})
	if err != nil {
		t.Fatalf("red campaign: %v", err)
	}
	if !st.Completed {
		t.Fatal("red campaign did not complete")
	}
	if len(st.Findings) == 0 {
		t.Fatal("red campaign found no violations; the seeded detector bug went undetected")
	}
	f := st.Findings[0]
	if f.Cell != 0 || f.Kind != "background" {
		t.Errorf("first finding from cell %d (%s), want the background cell 0", f.Cell, f.Kind)
	}
	if f.Invariant != "completes" {
		t.Errorf("first finding violates %q, want completes", f.Invariant)
	}
	r := f.Repro
	if r == nil {
		t.Fatal("first finding carries no reproducer")
	}
	if r.MinimizedCoords >= r.DiscoveredCoords {
		t.Errorf("shrinking did not reduce coordinates: %d → %d", r.DiscoveredCoords, r.MinimizedCoords)
	}
	if got := len(r.Minimized.Links) + len(r.Minimized.Crashes) + len(r.Minimized.Degraded); got != 1 {
		t.Errorf("minimized plan has %d atoms, want the single killer link rule (%+v)", got, r.Minimized)
	}
	if r.Expected.ErrorKind != "peer-failure" {
		t.Errorf("minimized plan ends in %q, want the spurious peer-failure verdict", r.Expected.ErrorKind)
	}

	// The artifact must survive a JSON round trip bit-for-bit…
	enc, err := r.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Load(enc)
	if err != nil {
		t.Fatal(err)
	}
	enc2, err := back.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, enc2) {
		t.Fatal("artifact changed across an encode/load round trip")
	}
	// …and replay from the loaded copy alone.
	if err := back.Verify(context.Background()); err != nil {
		t.Fatalf("artifact does not replay: %v", err)
	}

	// Green: the stock detector under the identical background cell.
	green, err := New(smallConfig(Target{N: 16, Q: 4}))
	if err != nil {
		t.Fatal(err)
	}
	// Budget 3 covers enumeration plus the background cell's two runs.
	gst, err := green.Run(RunOpts{Budget: 3, Log: t.Logf})
	if err != ErrBudget {
		t.Fatalf("green campaign: got %v, want ErrBudget", err)
	}
	if gst.NextCell != 1 {
		t.Fatalf("green campaign processed %d cells, want exactly the background cell", gst.NextCell)
	}
	if len(gst.Findings) != 0 {
		t.Fatalf("stock configuration flagged on the background cell: %+v", gst.Findings)
	}
}

// TestCampaignResumeIdentical checkpoints a campaign, kills it mid-sweep
// via context cancellation (the SIGINT path), resumes from the serialized
// checkpoint, and requires the final state — corpus, findings, run counts,
// artifacts — byte-identical to an uninterrupted reference run.
func TestCampaignResumeIdentical(t *testing.T) {
	cfg := smallConfig(redTarget())

	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	refSt, err := ref.Run(RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	refJSON, err := json.Marshal(refSt)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: cancel after the fourth checkpoint.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var snapshot []byte
	saves := 0
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = eng.Run(RunOpts{Context: ctx, Save: func(st *State) error {
		var err error
		snapshot, err = json.Marshal(st)
		saves++
		if saves == 4 {
			cancel()
		}
		return err
	}})
	if err != ErrInterrupted {
		t.Fatalf("interrupted run: got %v, want ErrInterrupted", err)
	}
	if snapshot == nil {
		t.Fatal("no checkpoint written before interruption")
	}

	// Resume from the serialized checkpoint only.
	var st State
	if err := json.Unmarshal(snapshot, &st); err != nil {
		t.Fatal(err)
	}
	if st.Completed {
		t.Fatal("interrupted checkpoint claims completion")
	}
	resumed, err := Resume(&st)
	if err != nil {
		t.Fatal(err)
	}
	finalSt, err := resumed.Run(RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	finalJSON, err := json.Marshal(finalSt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(refJSON, finalJSON) {
		t.Errorf("resumed campaign diverged from the uninterrupted reference:\nref:     %.400s…\nresumed: %.400s…", refJSON, finalJSON)
	}
}

// TestGoldenArtifactReplays pins the checked-in reproducer: the artifact
// alone — no campaign, no enumeration — must replay its violation bitwise.
// This is the regression net for the detector
// provisioning bug class.
func TestGoldenArtifactReplays(t *testing.T) {
	if os.Getenv("CAMPAIGN_REGEN_GOLDEN") != "" {
		eng, err := New(smallConfig(redTarget()))
		if err != nil {
			t.Fatal(err)
		}
		st, err := eng.Run(RunOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if len(st.Findings) == 0 || st.Findings[0].Repro == nil {
			t.Fatal("regeneration campaign produced no minimized finding")
		}
		data, err := st.Findings[0].Repro.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("testdata/repro-golden.json", data, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Log("regenerated testdata/repro-golden.json")
	}
	r, err := LoadFile("testdata/repro-golden.json")
	if err != nil {
		t.Fatal(err)
	}
	if r.MinimizedCoords >= r.DiscoveredCoords {
		t.Errorf("golden artifact is not minimized: %d → %d coords", r.DiscoveredCoords, r.MinimizedCoords)
	}
	if err := r.Verify(context.Background()); err != nil {
		t.Fatalf("golden artifact does not replay: %v", err)
	}
}

func TestResumeRejectsBadState(t *testing.T) {
	if _, err := Resume(&State{Version: 99, Config: smallConfig(redTarget()).withDefaults()}); err == nil {
		t.Error("wrong-version state accepted")
	}
	st := &State{Version: StateVersion, Config: smallConfig(redTarget()).withDefaults(), NextCell: 5}
	if _, err := Resume(st); err == nil {
		t.Error("next_cell beyond corpus accepted")
	}
}

// TestResumeIgnoresRetiredRuntimeField: checkpoints and reproducers written
// when campaigns still named a simulator backend carry a "runtime" field;
// they must keep loading.
func TestResumeIgnoresRetiredRuntimeField(t *testing.T) {
	st := &State{Version: StateVersion, Config: smallConfig(redTarget()).withDefaults()}
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	old := bytes.Replace(data, []byte(`"config":{`), []byte(`"config":{"runtime":"goroutine",`), 1)
	if bytes.Equal(old, data) {
		t.Fatal("fixture did not gain a runtime field")
	}
	var back State
	if err := json.Unmarshal(old, &back); err != nil {
		t.Fatalf("old checkpoint no longer decodes: %v", err)
	}
	if _, err := Resume(&back); err != nil {
		t.Fatalf("old checkpoint no longer resumes: %v", err)
	}
	art, err := os.ReadFile("testdata/repro-golden.json")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bytes.Replace(art, []byte(`"version": 1,`), []byte(`"version": 1, "runtime": "goroutine",`), 1)); err != nil {
		t.Fatalf("reproducer with a runtime field no longer loads: %v", err)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Target: Target{Workload: "cannon"}},
		{Target: Target{N: 15, Q: 4}},
		{Target: Target{Machine: "no-such-machine"}},
		{DropProb: 1.5},
		{TimeOverhead: 0.5},
		{RandomPlans: -1},
	}
	for i, c := range bad {
		if err := c.withDefaults().Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, c)
		}
	}
	if err := (Config{}).withDefaults().Validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}
