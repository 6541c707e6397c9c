package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// These tests run no workload: they check the generators, the statistics,
// the span arithmetic, the golden check and the manifest.

func TestSameSeedSameRequests(t *testing.T) {
	const n = 20000
	a, b, other := newCheapStream(7, 0, 2), newCheapStream(7, 0, 2), newCheapStream(8, 0, 2)
	same, hot := 0, 0
	for i := 0; i < n; i++ {
		ra, rb, ro := a.next(), b.next(), other.next()
		if ra != rb {
			t.Fatalf("request %d differs under one seed: %+v vs %+v", i, ra, rb)
		}
		if ra.query == ro.query {
			same++
		}
		if ra.hot {
			hot++
		}
	}
	if same > n*6/10 {
		t.Errorf("%d of %d requests are the same under another seed", same, n)
	}
	// The designed mix: 40 % hot /price + 10 % hot /optimize.
	if ratio := float64(hot) / n; math.Abs(ratio-0.5) > 0.02 {
		t.Errorf("hot share %.3f, designed 0.5", ratio)
	}
}

func TestNeverRepeatedAndNeverEvicted(t *testing.T) {
	const n = 20000
	streams := []*cheapStream{newCheapStream(3, 0, 2), newCheapStream(3, 1, 2)}
	seen := map[string]bool{}
	lastTouch := map[string]int{}
	for i := 0; i < n; i++ {
		for _, s := range streams {
			r := s.next()
			if !r.hot {
				if seen[r.query] {
					t.Fatalf("never-repeated query sent twice: %s", r.query)
				}
				seen[r.query] = true
				continue
			}
			// A hot key must come round again long before the ~500
			// misses per 1000 requests can push it out of 1024 entries.
			if last, ok := lastTouch[r.query]; ok && i-last > 600 {
				t.Fatalf("hot key untouched for %d requests per client: %s", i-last, r.query)
			}
			lastTouch[r.query] = i
		}
	}
	if len(lastTouch) != hotPriceKeys+hotOptKeys {
		t.Errorf("%d hot keys touched, want %d", len(lastTouch), hotPriceKeys+hotOptKeys)
	}
}

// Every generated request must be one the service answers with 200 and with
// the body the direct evaluation gives: the workloads are built so that no
// operation fails.
func TestGeneratedRequestsAreAnswered(t *testing.T) {
	golden, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	svc := newService()
	defer svc.close()
	h := svc.handler()
	ask := func(r request) {
		t.Helper()
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, httptest.NewRequest(http.MethodGet, r.path+"?"+r.query, nil))
		var tl tally
		r.sample, r.hot = true, rw.Header().Get("X-Cache") == "hit"
		if err := checkReply(r, rw.Code, rw.Header().Get("X-Cache"), rw.Body.Bytes(), golden, &tl); err != nil {
			t.Fatal(err)
		}
	}
	stream := newCheapStream(11, 0, 1)
	for i := 0; i < 600; i++ {
		ask(stream.next())
	}
	sims := newSimulateStream(11)
	for i := 0; i < 4; i++ {
		ask(sims.next())
	}
}

func TestStatistics(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	if got := median(xs); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
	if got := median(xs[:9]); got != 5 {
		t.Errorf("median of nine = %v, want 5", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
	if q1, q3 := quartiles([]float64{5, 4, 3, 2, 1}); q1 != 1.5 || q3 != 4.5 {
		t.Errorf("quartiles of five = %v, %v, want 1.5, 4.5", q1, q3)
	}
	if got := spread(xs); got != 1 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	for _, tc := range []struct{ q, want float64 }{{0.5, 5}, {0.99, 10}, {0.9, 9}, {0, 1}, {1, 10}} {
		if got := percentile(xs, tc.q); got != tc.want {
			t.Errorf("percentile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) || !math.IsNaN(median(nil)) {
		t.Error("empty input must give NaN")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "workload", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Name: "setup", StartNs: 0, EndNs: 30},
		{ID: 3, Parent: 2, Name: "inputs", StartNs: 5, EndNs: 15},
		{ID: 4, Parent: 1, Name: "timed", StartNs: 30, EndNs: 90},
		// Two children that overlap from 50 to 60 cover 40..70 once.
		{ID: 5, Parent: 4, Name: "request", StartNs: 40, EndNs: 60},
		{ID: 6, Parent: 4, Name: "request", StartNs: 50, EndNs: 70},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 10, 2: 20, 3: 10, 4: 30, 5: 20, 6: 20}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times = %v, want %v", self, want)
	}
	// Without the overlapping pair, self times sum to the root's duration.
	var sum int64
	for _, ns := range selfTimes(spans[:5]) {
		sum += ns
	}
	if sum != 100 {
		t.Errorf("self times of nested spans sum to %d, want the root's 100", sum)
	}
}

func TestRecorder(t *testing.T) {
	var none *recorder
	none.end(none.begin(0, "x")) // a nil recorder records nothing
	if none.finished() != nil || none.overheadFrac(1) != 0 {
		t.Error("nil recorder must be empty")
	}
	rec := newRecorder("w")
	root := rec.begin(0, "workload")
	child := rec.begin(root, "timed")
	for i := 0; i < 1000; i++ {
		rec.end(rec.begin(child, "round"))
	}
	rec.end(child)
	open := rec.begin(root, "never closed")
	rec.end(root)
	spans := rec.finished()
	if len(spans) != 1002 || spans[0].Name != "workload" || spans[1].Parent != root || spans[0].Workload != "w" {
		t.Fatalf("finished spans: %d, first %+v (span %d is open)", len(spans), spans[0], open)
	}
	// The parent does nothing but record its 1000 children, so recording
	// is about all of it.
	if f := rec.overheadFrac(child); !(f > 0.1 && f < 10) {
		t.Errorf("overhead of recording 1000 spans back to back = %v of their parent, want about 1", f)
	}
}

// A mutated golden value must turn the golden check red and be counted as a
// failed operation by the very function the sim workloads run.
func TestGoldenMutationIsCaught(t *testing.T) {
	golden, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	small := simulateMember("matmul25d") // p = 128: milliseconds
	run, check := small.prepare(5)
	members := []preparedMember{{simMember: small, run: run, check: check}}

	var clean passResult
	runRound(members, golden, runConfig{}, 0, &clean)
	if clean.attempted != 1 || clean.failed != 0 {
		t.Fatalf("clean golden: %d attempted, %d failed: %v", clean.attempted, clean.failed, clean.errs)
	}
	if err := check(members[0].last); err != nil {
		t.Errorf("reference check: %v", err)
	}

	for _, mutate := range []func(*simStats){
		func(s *simStats) { s.Time = math.Nextafter(s.Time, 1) },
		func(s *simStats) { s.Energy *= 1 + 1e-15 },
		func(s *simStats) { s.MaxS++ },
		func(s *simStats) { s.Words-- },
	} {
		mutated := map[string]simStats{}
		for k, v := range golden {
			mutated[k] = v
		}
		entry := mutated[small.name]
		mutate(&entry)
		mutated[small.name] = entry
		var red passResult
		runRound(members, mutated, runConfig{}, 0, &red)
		if red.failed != 1 {
			t.Errorf("mutated golden %+v: %d failed, want 1", entry, red.failed)
		}
	}
	if err := checkGolden(golden, "no such member", simStats{}); err == nil {
		t.Error("a missing golden entry must be an error")
	}
}

func TestGoldenPinsEveryMember(t *testing.T) {
	golden, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	names := []string{scaleMember.name}
	for _, m := range mixMembers {
		names = append(names, m.name)
	}
	for _, alg := range simulateShapes {
		names = append(names, "simulate_"+alg)
	}
	for _, name := range names {
		if g, ok := golden[name]; !ok || g.Time <= 0 || g.Energy <= 0 || g.Msgs <= 0 {
			t.Errorf("golden.json entry %q: %+v (present: %v)", name, g, ok)
		}
	}
	if len(golden) != len(names) {
		t.Errorf("golden.json has %d entries, the benchmark pins %d", len(golden), len(names))
	}
}

func TestEventRuntimeSelectedByName(t *testing.T) {
	cost, _ := newCost(runMode{})
	f := reflect.ValueOf(cost).FieldByName("Runtime")
	if !f.IsValid() {
		t.Skip("Cost.Runtime is gone: one runtime is left to select")
	}
	if got := fmt.Sprint(f.Interface()); got != "event" {
		t.Errorf("Cost.Runtime = %s, want event", got)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "lat_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	noisy := []float64{80, 120, 90, 110, 100, 70, 130, 95, 105, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, tc := range []struct {
		name string
		spec metricSpec
		a, b []float64
		want string
	}{
		{"same", lower, steady, steady, "ok"},
		{"slower within bound", lower, steady, scale(steady, 1.08), "ok"},
		{"slower beyond bound", lower, steady, scale(steady, 1.12), "regressed"},
		{"faster", lower, steady, scale(steady, 0.5), "ok"},
		{"throughput down beyond bound", higher, steady, scale(steady, 0.85), "regressed"},
		{"throughput up", higher, steady, scale(steady, 1.5), "ok"},
		{"spread wider than bound", lower, noisy, noisy, "unresolved"},
		{"noisy but every run better", lower, noisy, scale(noisy, 0.4), "ok"},
		{"single runs", lower, steady[:1], scale(steady[:1], 1.05), "ok"},
	} {
		if got := verdict(tc.spec, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

// BENCHMARK.json is the manifest printed by -manifest, and the manifest
// stays inside the limits the benchmark's contract sets.
func TestManifestIsBenchmarkJSON(t *testing.T) {
	want, err := json.MarshalIndent(theManifest(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want)+"\n" {
		t.Errorf("BENCHMARK.json is not the output of `benchmark -manifest`; regenerate it")
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range workloads {
		use(w.Name)
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
		if _, ok := simWorkloads[w.Name]; !ok && w.Name != "serve_cheap" && w.Name != "serve_heavy" {
			t.Errorf("workload %s has no implementation", w.Name)
		}
	}
	setup := false
	for _, s := range endToEnd {
		use(s.Name)
		if !unit.MatchString(s.Unit) || !(s.Bound > 0 && s.Bound <= 0.25) || (s.Better != "lower" && s.Better != "higher") {
			t.Errorf("end-to-end metric %+v", s)
		}
		setup = setup || (s.Name == "setup_s" && s.Unit == "s" && s.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric")
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, s := range perLayer {
		use(s.Name)
		if !unit.MatchString(s.Unit) || s.Bound != 0 {
			t.Errorf("per-layer metric %+v", s)
		}
	}
}
