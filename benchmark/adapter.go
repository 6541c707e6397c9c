package main

// adapter.go is the only file of the benchmark that names a symbol of the
// program under test. Everything else works on the plain types declared
// here, so a change to the program's API is absorbed in this one file.
//
// The adapter sets only sim.Cost{GammaT, BetaT, AlphaT, MaxMsgWords,
// Observers, Context}. The event runtime is selected by name through
// reflection (field "Runtime", value whose String() is "event"), and the
// selection is a no-op when the field is gone: a later change may delete
// Cost.Runtime/Wiring/WatchdogTimeout/Trace without touching the benchmark.

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"reflect"
	"time"

	"perfscale/internal/core"
	"perfscale/internal/fft"
	"perfscale/internal/lu"
	"perfscale/internal/machine"
	"perfscale/internal/matmul"
	"perfscale/internal/matrix"
	"perfscale/internal/nbody"
	"perfscale/internal/obs"
	"perfscale/internal/opt"
	"perfscale/internal/serve"
	"perfscale/internal/sim"
	"perfscale/internal/strassen"
)

// simMachine prices every run; it is also the server's default machine.
var simMachine = machine.SimDefault()

// runMode is what a probe may vary about a simulated run. The zero value
// is what the workloads use: nothing observes the run and no context
// bounds it, so collectives take the conducted path.
type runMode struct {
	// generic sets Cost.Context, which makes every collective take the
	// generic event-by-event path — the one /simulate requests get.
	generic bool
	// ring subscribes an obs ring buffer of that capacity when positive.
	ring int
}

// simHandle is one finished run: the simulator's result and the
// algorithm's numerical output, kept opaque for the rest of the benchmark.
type simHandle struct {
	res  *sim.Result
	out  any
	ring *obs.RingBuffer
}

// observed is the number of events the run's ring buffer saw.
func (h simHandle) observed() uint64 {
	if h.ring == nil {
		return 0
	}
	return h.ring.Total()
}

func newCost(mode runMode) (sim.Cost, *obs.RingBuffer) {
	cost := sim.Cost{
		GammaT:      simMachine.GammaT,
		BetaT:       simMachine.BetaT,
		AlphaT:      simMachine.AlphaT,
		MaxMsgWords: int(simMachine.MaxMsgWords),
	}
	selectRuntime(&cost, "event")
	var ring *obs.RingBuffer
	if mode.ring > 0 {
		ring = obs.NewRingBuffer(mode.ring)
		cost.Observers = []sim.Observer{ring}
	}
	if mode.generic {
		cost.Context = context.Background()
	}
	return cost, ring
}

// selectRuntime sets cost.Runtime to the value that calls itself name.
func selectRuntime(cost *sim.Cost, name string) {
	f := reflect.ValueOf(cost).Elem().FieldByName("Runtime")
	if !f.IsValid() || !f.CanInt() {
		return
	}
	for i := int64(0); i < 8; i++ {
		v := reflect.New(f.Type()).Elem()
		v.SetInt(i)
		if s, ok := v.Interface().(fmt.Stringer); ok && s.String() == name {
			f.Set(v)
			return
		}
	}
}

// simStats are the simulated statistics of one run. All but ActivePairs
// are properties of the modelled machine and are pinned in golden.json;
// ActivePairs counts host queues and is reported, not pinned.
type simStats struct {
	Time   float64 `json:"time_s"`
	Energy float64 `json:"energy_j"`
	MaxF   float64 `json:"max_flops"`
	MaxW   float64 `json:"max_words_sent"`
	MaxS   float64 `json:"max_msgs_sent"`
	MaxM   float64 `json:"max_mem_words"`
	Msgs   float64 `json:"total_msgs"`
	Words  float64 `json:"total_words"`

	ActivePairs int `json:"-"`
}

// priceSim prices a finished run with Eqs. 1–2 and extracts its statistics.
func priceSim(h simHandle) simStats {
	energy := core.PriceSim(simMachine, h.res)
	mx, tot := h.res.MaxStats(), h.res.TotalStats()
	return simStats{
		Time: h.res.Time(), Energy: energy.Total(),
		MaxF: mx.Flops, MaxW: mx.WordsSent, MaxS: mx.MsgsSent, MaxM: mx.PeakMemWords,
		Msgs: tot.MsgsSent, Words: tot.WordsSent,
		ActivePairs: h.res.ActivePairs,
	}
}

// simMember is one simulated algorithm at one size.
type simMember struct {
	name string
	p    int
	// prepare draws the member's inputs from seed. run executes it on the
	// simulator; check compares a run's numerical output with the serial
	// reference.
	prepare func(seed int64) (run func(runMode) (simHandle, error), check func(simHandle) error)
}

type matmulAlg func(cost sim.Cost, a, b *matrix.Dense) (*matmul.RunResult, error)

// matmulMember multiplies a rows×inner by an inner×cols matrix with alg.
func matmulMember(name string, p, rows, inner, cols int, alg matmulAlg) simMember {
	return simMember{name: name, p: p, prepare: func(seed int64) (func(runMode) (simHandle, error), func(simHandle) error) {
		a := matrix.Random(rows, inner, seed)
		b := matrix.Random(inner, cols, seed+1)
		run := func(mode runMode) (simHandle, error) {
			cost, ring := newCost(mode)
			rr, err := alg(cost, a, b)
			if err != nil {
				return simHandle{}, err
			}
			return simHandle{res: rr.Sim, out: rr.C, ring: ring}, nil
		}
		check := func(h simHandle) error {
			return within(name, matrix.Mul(a, b).MaxAbsDiff(h.out.(*matrix.Dense)), 1e-9*float64(inner))
		}
		return run, check
	}}
}

func within(name string, diff, tol float64) error {
	if !(diff <= tol) {
		return fmt.Errorf("%s: output differs from the serial reference by %g (tolerance %g)", name, diff, tol)
	}
	return nil
}

func cannon25D(q, c int) matmulAlg {
	return func(cost sim.Cost, a, b *matrix.Dense) (*matmul.RunResult, error) {
		return matmul.TwoPointFiveD(cost, q, c, a, b)
	}
}

func summa25D(q, c int) matmulAlg {
	return func(cost sim.Cost, a, b *matrix.Dense) (*matmul.RunResult, error) {
		return matmul.TwoPointFiveDSUMMA(cost, q, c, a, b)
	}
}

func fftMember(name string, p, n int, tree bool) simMember {
	return simMember{name: name, p: p, prepare: func(seed int64) (func(runMode) (simHandle, error), func(simHandle) error) {
		x := fft.RandomSignal(n, seed)
		run := func(mode runMode) (simHandle, error) {
			cost, ring := newCost(mode)
			rr, err := fft.Distributed(cost, p, x, tree)
			if err != nil {
				return simHandle{}, err
			}
			return simHandle{res: rr.Sim, out: rr.Y, ring: ring}, nil
		}
		check := func(h simHandle) error {
			return within(name, fft.MaxAbsDiff(fft.Serial(x), h.out.([]complex128)), 1e-7*float64(n))
		}
		return run, check
	}}
}

func nbodyMember(name string, p, c, n int) simMember {
	return simMember{name: name, p: p, prepare: func(seed int64) (func(runMode) (simHandle, error), func(simHandle) error) {
		bodies := nbody.RandomBodies(n, seed)
		run := func(mode runMode) (simHandle, error) {
			cost, ring := newCost(mode)
			rr, err := nbody.Replicated(cost, p, c, bodies)
			if err != nil {
				return simHandle{}, err
			}
			return simHandle{res: rr.Sim, out: rr.Forces, ring: ring}, nil
		}
		check := func(h simHandle) error {
			ref := nbody.SerialForces(bodies)
			scale := 1.0
			for _, f := range ref {
				scale = math.Max(scale, math.Abs(f))
			}
			return within(name, nbody.MaxAbsDiff(ref, h.out.([]float64)), 1e-9*scale)
		}
		return run, check
	}}
}

func luMember(name string, q, c, n int) simMember {
	return simMember{name: name, p: q * q * c, prepare: func(seed int64) (func(runMode) (simHandle, error), func(simHandle) error) {
		a := matrix.RandomDiagDominant(n, seed)
		run := func(mode runMode) (simHandle, error) {
			cost, ring := newCost(mode)
			rr, err := lu.Stacked(cost, q, c, a)
			if err != nil {
				return simHandle{}, err
			}
			return simHandle{res: rr.Sim, out: rr, ring: ring}, nil
		}
		check := func(h simHandle) error {
			rr := h.out.(*lu.Result)
			return within(name, matrix.Mul(rr.L, rr.U).MaxAbsDiff(a), 1e-9*float64(n))
		}
		return run, check
	}}
}

func capsMember(name string, k, n, cutoff int) simMember {
	p := 1
	for i := 0; i < k; i++ {
		p *= 7
	}
	return matmulMember(name, p, n, n, n, func(cost sim.Cost, a, b *matrix.Dense) (*matmul.RunResult, error) {
		rr, err := strassen.CAPS(cost, k, a, b, cutoff)
		if err != nil {
			return nil, err
		}
		return &matmul.RunResult{C: rr.C, Sim: rr.Sim}, nil
	})
}

// scaleMember is the sim_scale workload: Cannon-style 2.5D matmul with
// 4×4 blocks, so each of the 32,768 ranks does 128 flops per step and the
// engine does nearly all the work.
var scaleMember = matmulMember("matmul25d_p32768", 32768, 256, 256, 256, cannon25D(64, 8))

// mixMembers are the members of one sim_mix round, in running order.
var mixMembers = []simMember{
	matmulMember("summa25d_p4096", 4096, 256, 256, 256, summa25D(64, 1)),
	matmulMember("summa25d_p1024", 1024, 256, 256, 256, summa25D(16, 4)),
	matmulMember("matmul3d_p512", 512, 256, 256, 256, func(cost sim.Cost, a, b *matrix.Dense) (*matmul.RunResult, error) {
		return matmul.ThreeD(cost, 8, a, b)
	}),
	matmulMember("summarect_p512", 512, 768, 512, 1024, func(cost sim.Cost, a, b *matrix.Dense) (*matmul.RunResult, error) {
		return matmul.SUMMARect(cost, 16, 32, 16, a, b)
	}),
	fftMember("fft_tree_p512", 512, 1<<19, true),
	fftMember("fft_naive_p512", 512, 1<<19, false),
	nbodyMember("nbody_p1024", 1024, 4, 4096),
	luMember("lu_p1024", 16, 4, 512),
	capsMember("caps_p49", 2, 448, 16),
	matmulMember("matmul_kernel_p64", 64, 768, 768, 768, cannon25D(8, 1)),
}

// simulateShapes are the /simulate query shapes of serve_heavy; their
// statistics are pinned in golden.json under "simulate_<alg>".
var simulateShapes = []string{"matmul25d", "summa25d"}

const (
	simulateN = 128
	simulateQ = 8
	simulateC = 2
)

// Probes of single layers ---------------------------------------------------

// spawnOnly starts and ends p ranks that do nothing.
func spawnOnly(p int) error {
	cost, _ := newCost(runMode{})
	_, err := sim.Run(p, cost, func(*sim.Rank) error { return nil })
	return err
}

// ringExchange has each of p ranks exchange words-long messages with its
// ring neighbours for rounds rounds and returns the messages sent.
func ringExchange(p, rounds, words int) (float64, error) {
	cost, _ := newCost(runMode{})
	res, err := sim.Run(p, cost, func(r *sim.Rank) error {
		buf := make([]float64, words)
		next, prev := (r.ID()+1)%p, (r.ID()+p-1)%p
		for i := 0; i < rounds; i++ {
			buf = r.SendRecv(next, buf, prev)
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return res.TotalStats().MsgsSent, nil
}

// rowCollectives runs rounds of Bcast+AllReduce of 8 words on the row
// communicators of a q×q grid and returns the collective calls made
// (counted once per communicator, not per member).
func rowCollectives(q, rounds int, mode runMode) (int, error) {
	cost, _ := newCost(mode)
	_, err := sim.Run(q*q, cost, func(r *sim.Rank) error {
		members := make([]int, q)
		for i := range members {
			members[i] = r.ID()/q*q + i
		}
		row, err := r.NewComm(members)
		if err != nil {
			return err
		}
		buf := make([]float64, 8)
		for i := 0; i < rounds; i++ {
			buf = row.Bcast(i%q, buf)
			buf = row.AllReduce(buf, sim.OpSum)
		}
		return nil
	})
	return 2 * q * rounds, err
}

// gemm multiplies two random n×n blocks reps times and returns the flops.
func gemm(n, reps int, seed int64) float64 {
	a, b := matrix.Random(n, n, seed), matrix.Random(n, n, seed+1)
	for i := 0; i < reps; i++ {
		matrix.Mul(a, b)
	}
	return float64(reps) * matrix.MulFlops(n, n, n)
}

func randomMatrix(n int, seed int64) { matrix.Random(n, n, seed) }

// Direct evaluation of what /price and /optimize answer ---------------------

// priceQuery is one /price query with every parameter explicit.
type priceQuery struct {
	Alg  string
	N, P float64
	Mem  float64 // 0 for fft, which takes none
	Tree bool
}

// directPrice evaluates q with internal/core, bypassing the service.
func directPrice(q priceQuery) (timeS, energyJ float64, err error) {
	var res core.Result
	switch q.Alg {
	case "matmul":
		res = core.MatMulClassical(simMachine, q.N, q.P, q.Mem)
	case "strassen":
		res = core.FastMatMul(simMachine, q.N, q.P, q.Mem, math.Log2(7))
	case "lu":
		res = core.LU(simMachine, q.N, q.P, q.Mem)
	case "nbody":
		res = core.NBody(simMachine, q.N, q.P, q.Mem, nbody.FlopsPerPair)
	case "fft":
		res = core.FFT(simMachine, q.N, q.P, q.Tree)
	default:
		return 0, 0, fmt.Errorf("no direct evaluation for alg %q", q.Alg)
	}
	return res.TotalTime(), res.TotalEnergy(), nil
}

// optimizeQuery is one /optimize query; Budget is 0 for min_energy.
type optimizeQuery struct {
	Alg, Objective string
	N, Budget      float64
}

// directOptimize evaluates q with internal/opt, bypassing the service.
func directOptimize(q optimizeQuery) (energyJ, memWords float64, err error) {
	switch q.Alg {
	case "matmul", "strassen":
		pb := opt.MatMul{M: simMachine, N: q.N}
		if q.Alg == "strassen" {
			pb.Omega = math.Log2(7)
		}
		if q.Objective == "min_energy" {
			return pb.MinEnergy(), pb.OptimalMemory(), nil
		}
		cfg, e, err := pb.MinEnergyGivenTime(q.Budget)
		return e, cfg.Mem, err
	case "nbody":
		pb := opt.NBody{M: simMachine, N: q.N, F: nbody.FlopsPerPair}
		if q.Objective == "min_energy" {
			return pb.MinEnergy(), pb.OptimalMemory(), nil
		}
		cfg, e, err := pb.MinEnergyGivenTime(q.Budget)
		return e, cfg.Mem, err
	}
	return 0, 0, fmt.Errorf("no direct evaluation for alg %q", q.Alg)
}

// timeBudget returns a runtime budget that min_energy_given_time can meet
// for alg at size n: slack times the runtime at the energy-optimal memory
// on the most processors that memory admits.
func timeBudget(alg string, n, slack float64) float64 {
	if alg == "nbody" {
		pb := opt.NBody{M: simMachine, N: n, F: nbody.FlopsPerPair}
		mem := pb.OptimalMemory()
		_, pHi := pb.MinEnergyProcRange()
		return slack * pb.Time(pHi, mem)
	}
	pb := opt.MatMul{M: simMachine, N: n}
	if alg == "strassen" {
		pb.Omega = math.Log2(7)
	}
	mem := pb.OptimalMemory()
	return slack * pb.Time(pb.PMax(mem), mem)
}

// closedForms evaluates the five closed-form models once each.
func closedForms(n, p float64) float64 {
	mem := 2 * n * n / p
	sum := core.MatMulClassical(simMachine, n, p, mem).TotalEnergy()
	sum += core.LU(simMachine, n, p, mem).TotalEnergy()
	sum += core.FastMatMul(simMachine, n, p, mem, math.Log2(7)).TotalEnergy()
	sum += core.NBody(simMachine, n, p, 2*n/p, nbody.FlopsPerPair).TotalEnergy()
	sum += core.FFT(simMachine, n, p, true).TotalEnergy()
	return sum
}

// syntheticPricing prices a p-rank result whose counters are filled with
// plausible values, which costs what pricing a real run of p ranks costs.
func syntheticPricing(p int) float64 {
	res := &sim.Result{PerRank: make([]sim.Stats, p)}
	for i := range res.PerRank {
		f := float64(i%7 + 1)
		res.PerRank[i] = sim.Stats{Flops: 1e3 * f, WordsSent: 64 * f, MsgsSent: f, PeakMemWords: 48, Time: 1e-5 * f}
	}
	return priceSim(simHandle{res: res}).Energy
}

// The service --------------------------------------------------------------

// service is an in-process query server with default options.
type service struct {
	srv *serve.Server
}

func newService() *service { return &service{srv: serve.New(serve.Options{})} }

func (s *service) handler() http.Handler { return s.srv.Handler() }

// close drains the server; nothing is in flight when the benchmark calls it.
func (s *service) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err := s.srv.Drain(ctx)
	return err
}

// serviceCounters is the server's own accounting.
type serviceCounters struct {
	CacheHits, CacheMisses, Coalesced int64
	Shed, TimedOut, Failed, Panics    int64
	CheapP50Ms, HeavyP50Ms            float64
}

func (s *service) counters() serviceCounters {
	snap := s.srv.Metrics().Snapshot(time.Now())
	c := serviceCounters{
		CacheHits: snap.CacheHits, CacheMisses: snap.CacheMisses, Coalesced: snap.Coalesced,
		Panics:     snap.Panics,
		CheapP50Ms: snap.Lanes["cheap"].P50Ms, HeavyP50Ms: snap.Lanes["heavy"].P50Ms,
	}
	for _, l := range snap.Lanes {
		c.Shed += l.Shed
		c.TimedOut += l.TimedOut
		c.Failed += l.Failed
	}
	return c
}
