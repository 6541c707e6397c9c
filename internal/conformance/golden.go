package conformance

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"sync"

	"perfscale/internal/matmul"
	"perfscale/internal/matrix"
	"perfscale/internal/resilience"
	"perfscale/internal/sim"
)

// The golden family pins the simulator's determinism against history.
// Virtual clocks and counters are a pure function of the program's per-pair
// FIFO message order and the arrival stamps carried in messages, never of
// the host schedule that carried the ranks, so a run reduces to a digest
// that must never move unless the model itself is changed on purpose.
// testdata/golden.json holds those digests, recorded from the goroutine
// backend the simulator used to ship beside the event engine; the family
// re-runs each point once and demands the same bits:
//
//   - every algorithm in the registry at its first quick point, with no
//     observer or fault plan attached (collectives are conducted, as on
//     every run): per-rank F/W/S/M counters and clocks, and ActivePairs;
//   - the 2.5D matmul with an observer attached: per-rank stats and the
//     per-rank segment streams (cross-rank interleaving is unordered by
//     contract and not digested). Its collectives are conducted, and the
//     digests were recorded member by member on the goroutine backend, so
//     this pins the conductor's event streams to that path's;
//   - a seeded chaos plan — silent drops, duplications, corruptions — masked
//     by the ARQ endpoints: recovery is virtual-time state machinery, so the
//     stats, the product matrix, the ARQ protocol counters and the per-rank
//     fault/timer/segment streams are all pinned. The ARQ broadcasts are
//     point to point: no collective's fate enters these digests.
//
// Like the live strong-scaling checks, the family always runs on the
// sim-default machine (scalingCost): it pins the simulator, not a pricing,
// and the digests are a property of that one cost. A mutated cost
// (Config.MutateCost) therefore surfaces here too.
//
// Regenerate only for an intended model change, and say so in the commit:
//
//	go test ./internal/conformance -run Golden -update
//
//go:embed testdata/golden.json
var goldenJSON []byte

// goldenSeed keys the chaos run. It is pinned here rather than read from
// DefaultSeeds: a digest exists for this plan only.
const goldenSeed = 1

// goldenValue is one pinned quantity of a golden run: a digest, or the
// value itself where it is short enough to read.
type goldenValue struct{ property, value string }

// goldenRun is one run of the family reduced to its pinned quantities.
type goldenRun struct {
	key    string // the run's name in testdata/golden.json
	alg    string
	pt     Point
	values []goldenValue
}

func checkGolden(ck *checker, cfg Config) error {
	var pinned map[string]map[string]string
	if err := json.Unmarshal(goldenJSON, &pinned); err != nil {
		return fmt.Errorf("conformance: testdata/golden.json: %w", err)
	}
	runs, err := goldenRuns(cfg)
	if err != nil {
		return err
	}
	for _, run := range runs {
		for _, v := range run.values {
			want, ok := pinned[run.key][v.property]
			ck.checkTrue("golden/"+v.property, run.alg, run.pt, "",
				ok && v.value == want, 0, 0,
				fmt.Sprintf("%q is %s, testdata/golden.json pins %q: the simulated outcome moved", run.key, v.value, want))
		}
	}
	return nil
}

// goldenRuns executes every run of the family once, in report order.
func goldenRuns(cfg Config) ([]goldenRun, error) {
	m, cost := scalingCost(cfg)
	var runs []goldenRun
	for _, alg := range selectAlgorithms(cfg.Algorithms) {
		pt := alg.points(Quick)[0]
		run, err := alg.run(cost, m, pt)
		if err != nil {
			return nil, fmt.Errorf("conformance: golden %s %s: %w", alg.name, pt, err)
		}
		runs = append(runs, goldenRun{
			key: alg.name + " " + pt.String(), alg: alg.name, pt: pt,
			values: []goldenValue{
				{"per-rank-stats", statsDigest(run.res)},
				{"active-pairs", fmt.Sprint(run.res.ActivePairs)},
			},
		})
	}
	observed, err := goldenObserved(cost)
	if err != nil {
		return nil, err
	}
	chaos, err := goldenChaos(cost)
	if err != nil {
		return nil, err
	}
	return append(runs, observed, chaos), nil
}

// goldenObserved runs the 2.5D matmul with an observer subscribed: the run
// that pins the per-rank segment streams. Its collectives are conducted,
// against digests recorded from the goroutine backend's member-by-member
// run, so a conductor that emitted a member's events out of place would
// move them.
func goldenObserved(cost sim.Cost) (goldenRun, error) {
	const alg = "matmul-2.5d"
	pt := Point{N: 48, Q: 4, C: 2, P: 32}
	a := matrix.Random(pt.N, pt.N, 51)
	b := matrix.Random(pt.N, pt.N, 52)
	obs := newStreamObs()
	cost.Observers = []sim.Observer{obs}
	res, err := matmul.TwoPointFiveD(cost, pt.Q, pt.C, a, b)
	if err != nil {
		return goldenRun{}, fmt.Errorf("conformance: golden observed %s: %w", pt, err)
	}
	return goldenRun{
		key: "observed " + alg + " " + pt.String(), alg: alg, pt: pt,
		values: []goldenValue{
			{"observed-per-rank-stats", statsDigest(res.Sim)},
			{"observer-stream", obs.digest(pt.P)},
		},
	}, nil
}

// goldenChaos runs one seeded chaos plan — drops, duplications and
// corruptions masked by the ARQ endpoints — and pins the complete outcome.
func goldenChaos(cost sim.Cost) (goldenRun, error) {
	const alg = "summa-arq"
	pt := Point{N: 32, P: 16, Q: 4}
	a := matrix.Random(pt.N, pt.N, 61)
	b := matrix.Random(pt.N, pt.N, 62)
	nb := pt.N / pt.Q
	arqCfg := resilience.ARQDefaults(cost, nb*nb)
	arqCfg.MaxAttempts = 3
	arqCfg.MaxRTO = 8 * arqCfg.RTO
	obs := newStreamObs()
	cost.Observers = []sim.Observer{obs}
	cost.Faults = recoveryFaults(goldenSeed)
	res, err := resilience.SUMMAARQ(cost, pt.Q, arqCfg, a, b)
	if err != nil {
		return goldenRun{}, fmt.Errorf("conformance: golden chaos seed %#x: %w", goldenSeed, err)
	}
	product := fnv.New64a()
	fmt.Fprintf(product, "%dx%d %v", res.C.Rows, res.C.Cols, res.C.Data)
	return goldenRun{
		key: fmt.Sprintf("chaos %s %s seed=%#x", alg, pt, goldenSeed), alg: alg, pt: pt,
		values: []goldenValue{
			{"chaos-per-rank-stats", statsDigest(res.Sim)},
			{"chaos-numerics", hexDigest(product)},
			{"chaos-arq-counters", fmt.Sprintf("%+v", res.Report())},
			{"chaos-observer-stream", obs.digest(pt.P)},
		},
	}, nil
}

// The digests are FNV-1a over the %+v rendering of each record: every field
// by name, floats in the shortest form that round-trips, so two records
// digest alike exactly when they are == (a field added to Stats or Segment
// later joins the digest without anyone remembering to add it).

func hexDigest(h hash.Hash64) string { return fmt.Sprintf("%016x", h.Sum64()) }

// statsDigest digests a run's per-rank Stats in rank order.
func statsDigest(res *sim.Result) string {
	h := fnv.New64a()
	for _, s := range res.PerRank {
		fmt.Fprintf(h, "%+v;", s)
	}
	return hexDigest(h)
}

// streamObs records per-rank observer streams. One mutex suffices: the
// engine delivers callbacks from its worker pool.
type streamObs struct {
	mu     sync.Mutex
	segs   map[int][]sim.Segment
	faults map[int][]sim.FaultEvent
	timers map[int][]sim.TimerEvent
}

func newStreamObs() *streamObs {
	return &streamObs{
		segs:   map[int][]sim.Segment{},
		faults: map[int][]sim.FaultEvent{},
		timers: map[int][]sim.TimerEvent{},
	}
}

func (o *streamObs) add(rank int, seg sim.Segment) {
	o.mu.Lock()
	o.segs[rank] = append(o.segs[rank], seg)
	o.mu.Unlock()
}

func (o *streamObs) OnCompute(rank int, seg sim.Segment) { o.add(rank, seg) }
func (o *streamObs) OnSend(rank int, seg sim.Segment)    { o.add(rank, seg) }
func (o *streamObs) OnRecv(rank int, seg sim.Segment)    { o.add(rank, seg) }
func (o *streamObs) OnPhase(int, string, float64)        {}
func (o *streamObs) OnFault(ev sim.FaultEvent) {
	o.mu.Lock()
	o.faults[ev.Src] = append(o.faults[ev.Src], ev)
	o.mu.Unlock()
}
func (o *streamObs) OnCrash(sim.CrashEvent)       {}
func (o *streamObs) OnDeadlock(sim.DeadlockEvent) {}
func (o *streamObs) OnTimer(ev sim.TimerEvent) {
	o.mu.Lock()
	o.timers[ev.Rank] = append(o.timers[ev.Rank], ev)
	o.mu.Unlock()
}

// digest digests the recorded streams rank by rank: each rank's segments,
// then its fault events, then its timer events, each in delivery order.
func (o *streamObs) digest(p int) string {
	h := fnv.New64a()
	for rank := 0; rank < p; rank++ {
		fmt.Fprintf(h, "rank %d segs %+v faults %+v timers %+v;", rank, o.segs[rank], o.faults[rank], o.timers[rank])
	}
	return hexDigest(h)
}
