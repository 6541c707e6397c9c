package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"perfscale/internal/bounds"
	"perfscale/internal/core"
	"perfscale/internal/machine"
	"perfscale/internal/matmul"
	"perfscale/internal/nbody"
	"perfscale/internal/obs"
	"perfscale/internal/opt"
	"perfscale/internal/sim"
)

// Query endpoints. All three accept GET with URL parameters (curl-friendly;
// see docs/SERVE.md) and answer JSON. Every query is a pure function of its
// parameters, which is what makes the cache and coalescing in cache.go
// sound.

// param helpers ------------------------------------------------------------

func parseFloat(q url.Values, name string, def float64) (float64, *apiError) {
	raw := q.Get(name)
	if raw == "" {
		return def, nil
	}
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, badRequest("parameter %s must be a finite number, got %q", name, raw)
	}
	return v, nil
}

func parseInt(q url.Values, name string, def int) (int, *apiError) {
	raw := q.Get(name)
	if raw == "" {
		return def, nil
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, badRequest("parameter %s must be an integer, got %q", name, raw)
	}
	return v, nil
}

func parseBool(q url.Values, name string) bool {
	switch q.Get(name) {
	case "1", "true", "yes":
		return true
	}
	return false
}

// resolveMachine maps the ?machine= parameter to a preset. Only preset
// names are accepted over HTTP — never file paths.
func (s *Server) resolveMachine(q url.Values) (machine.Params, *apiError) {
	name := q.Get("machine")
	if name == "" {
		return s.opts.Machine, nil
	}
	m, err := machine.ByName(name)
	if err != nil {
		return machine.Params{}, badRequest("%v", err)
	}
	return m, nil
}

// /price -------------------------------------------------------------------

// priceResponse is the closed-form evaluation of one (machine, alg, n, p,
// M) point: Eqs. 1 and 2 split by source.
type priceResponse struct {
	Machine string  `json:"machine"`
	Alg     string  `json:"alg"`
	N       float64 `json:"n"`
	P       float64 `json:"p"`
	Mem     float64 `json:"mem_words"`

	Flops float64 `json:"flops_per_proc"`
	Words float64 `json:"words_per_proc"`
	Msgs  float64 `json:"msgs_per_proc"`

	Time        core.TimeBreakdown   `json:"time_breakdown_s"`
	TotalTimeS  float64              `json:"total_time_s"`
	Energy      core.EnergyBreakdown `json:"energy_breakdown_j"`
	TotalEnergy float64              `json:"total_energy_j"`

	AvgPowerW     float64 `json:"avg_power_w"`
	PowerPerProcW float64 `json:"power_per_proc_w"`
	GFLOPSPerWatt float64 `json:"gflops_per_watt"`
}

func (s *Server) handlePrice(ctx context.Context, w *statusWriter, req *http.Request) {
	q := req.URL.Query()
	m, aerr := s.resolveMachine(q)
	if aerr != nil {
		writeAPIError(w, aerr)
		return
	}
	alg := q.Get("alg")
	n, aerr := parseFloat(q, "n", 0)
	if aerr == nil && !(n > 0) {
		aerr = badRequest("parameter n must be positive")
	}
	if aerr != nil {
		writeAPIError(w, aerr)
		return
	}
	p, aerr := parseFloat(q, "p", 0)
	if aerr == nil && !(p > 0) {
		aerr = badRequest("parameter p must be positive")
	}
	if aerr != nil {
		writeAPIError(w, aerr)
		return
	}
	mem, aerr := parseFloat(q, "mem", 0)
	if aerr != nil {
		writeAPIError(w, aerr)
		return
	}
	omega, aerr := parseFloat(q, "omega", bounds.OmegaStrassen)
	if aerr != nil {
		writeAPIError(w, aerr)
		return
	}
	fpp, aerr := parseFloat(q, "flops_per_pair", nbody.FlopsPerPair)
	if aerr != nil {
		writeAPIError(w, aerr)
		return
	}
	tree := parseBool(q, "tree")

	key := fmt.Sprintf("price|m=%s|alg=%s|n=%g|p=%g|mem=%g|omega=%g|fpp=%g|tree=%t",
		m.Name, alg, n, p, mem, omega, fpp, tree)
	s.cachedQuery(ctx, w, s.cheap, key, func() (any, *apiError) {
		res, aerr := evalPrice(m, alg, n, p, mem, omega, fpp, tree)
		if aerr != nil {
			return nil, aerr
		}
		return &priceResponse{
			Machine: m.Name, Alg: alg, N: n, P: res.P, Mem: res.Mem,
			Flops: res.Costs.Flops, Words: res.Costs.Words, Msgs: res.Costs.Msgs,
			Time: res.Time, TotalTimeS: res.TotalTime(),
			Energy: res.Energy, TotalEnergy: res.TotalEnergy(),
			AvgPowerW: res.AvgPower(), PowerPerProcW: res.PowerPerProcessor(),
			GFLOPSPerWatt: res.GFLOPSPerWatt(),
		}, nil
	})
}

// evalPrice dispatches to the closed-form evaluator for alg, filling in
// the maximum legal replication memory when mem is omitted.
func evalPrice(m machine.Params, alg string, n, p, mem, omega, fpp float64, tree bool) (core.Result, *apiError) {
	switch alg {
	case "matmul":
		if mem == 0 {
			mem = n * n / math.Pow(p, 2.0/3.0) // 3D limit, the paper's c = p^(1/3)
		}
		if err := core.CheckMatMulRange(n, p, mem); err != nil {
			return core.Result{}, badRequest("%v", err)
		}
		return core.MatMulClassical(m, n, p, mem), nil
	case "strassen":
		if mem == 0 {
			mem = n * n / math.Pow(p, 2.0/omega)
		}
		if mem*p < n*n {
			return core.Result{}, badRequest("mem %g too small: p·M must hold the inputs (n² = %g)", mem, n*n)
		}
		return core.FastMatMul(m, n, p, mem, omega), nil
	case "lu":
		if mem == 0 {
			mem = n * n / math.Pow(p, 2.0/3.0)
		}
		if err := core.CheckMatMulRange(n, p, mem); err != nil {
			return core.Result{}, badRequest("%v", err)
		}
		return core.LU(m, n, p, mem), nil
	case "nbody":
		if mem == 0 {
			mem = n / math.Sqrt(p) // c = √p, the paper's maximum replication
		}
		if err := core.CheckNBodyRange(n, p, mem); err != nil {
			return core.Result{}, badRequest("%v", err)
		}
		return core.NBody(m, n, p, mem, fpp), nil
	case "fft":
		return core.FFT(m, n, p, tree), nil
	case "":
		return core.Result{}, badRequest("parameter alg is required (matmul, strassen, lu, nbody, fft)")
	default:
		return core.Result{}, badRequest("unknown alg %q (want matmul, strassen, lu, nbody, fft)", alg)
	}
}

// /optimize ----------------------------------------------------------------

// optimizeResponse reports the optimizer's pick for one objective.
type optimizeResponse struct {
	Machine   string  `json:"machine"`
	Alg       string  `json:"alg"`
	N         float64 `json:"n"`
	Objective string  `json:"objective"`
	Budget    float64 `json:"budget,omitempty"`

	P        float64 `json:"p,omitempty"`
	MemWords float64 `json:"mem_words"`
	EnergyJ  float64 `json:"energy_j,omitempty"`
	TimeS    float64 `json:"time_s,omitempty"`

	// Note documents objective-specific caveats (e.g. min_energy holds
	// for every p inside the perfect-strong-scaling range).
	Note string `json:"note,omitempty"`
}

func (s *Server) handleOptimize(ctx context.Context, w *statusWriter, req *http.Request) {
	q := req.URL.Query()
	m, aerr := s.resolveMachine(q)
	if aerr != nil {
		writeAPIError(w, aerr)
		return
	}
	alg := q.Get("alg")
	objective := q.Get("objective")
	n, aerr := parseFloat(q, "n", 0)
	if aerr == nil && !(n > 0) {
		aerr = badRequest("parameter n must be positive")
	}
	if aerr != nil {
		writeAPIError(w, aerr)
		return
	}
	budget, aerr := parseFloat(q, "budget", 0)
	if aerr != nil {
		writeAPIError(w, aerr)
		return
	}
	omega, aerr := parseFloat(q, "omega", 0)
	if aerr != nil {
		writeAPIError(w, aerr)
		return
	}
	fpp, aerr := parseFloat(q, "flops_per_pair", nbody.FlopsPerPair)
	if aerr != nil {
		writeAPIError(w, aerr)
		return
	}

	key := fmt.Sprintf("optimize|m=%s|alg=%s|n=%g|obj=%s|budget=%g|omega=%g|fpp=%g",
		m.Name, alg, n, objective, budget, omega, fpp)
	s.cachedQuery(ctx, w, s.cheap, key, func() (any, *apiError) {
		return evalOptimize(m, alg, objective, n, budget, omega, fpp)
	})
}

// evalOptimize dispatches to internal/opt. Objectives taking a budget
// require it positive; ErrInfeasible maps to HTTP 422.
func evalOptimize(m machine.Params, alg, objective string, n, budget, omega, fpp float64) (any, *apiError) {
	resp := &optimizeResponse{Machine: m.Name, Alg: alg, N: n, Objective: objective, Budget: budget}
	needBudget := func() *apiError {
		if !(budget > 0) {
			return badRequest("objective %s requires a positive budget parameter", objective)
		}
		return nil
	}
	mapErr := func(err error) *apiError {
		if errors.Is(err, opt.ErrInfeasible) {
			return &apiError{Status: http.StatusUnprocessableEntity, Code: "infeasible",
				Detail: fmt.Sprintf("budget %g cannot be met: %v", budget, err)}
		}
		return &apiError{Status: http.StatusInternalServerError, Code: "internal", Detail: err.Error()}
	}

	switch alg {
	case "nbody":
		pb := opt.NBody{M: m, N: n, F: fpp}
		switch objective {
		case "min_energy":
			mem := pb.OptimalMemory()
			pLo, pHi := pb.MinEnergyProcRange()
			resp.MemWords = mem
			resp.EnergyJ = pb.MinEnergy()
			resp.Note = fmt.Sprintf("energy is p-independent across the perfect-strong-scaling range p ∈ [%.4g, %.4g]", pLo, pHi)
		case "min_energy_given_time":
			if aerr := needBudget(); aerr != nil {
				return nil, aerr
			}
			cfg, e, err := pb.MinEnergyGivenTime(budget)
			if err != nil {
				return nil, mapErr(err)
			}
			resp.P, resp.MemWords, resp.EnergyJ, resp.TimeS = cfg.P, cfg.Mem, e, budget
		case "min_time_given_energy":
			if aerr := needBudget(); aerr != nil {
				return nil, aerr
			}
			cfg, t, err := pb.MinTimeGivenEnergy(budget)
			if err != nil {
				return nil, mapErr(err)
			}
			resp.P, resp.MemWords, resp.TimeS, resp.EnergyJ = cfg.P, cfg.Mem, t, budget
		case "min_energy_given_power":
			if aerr := needBudget(); aerr != nil {
				return nil, aerr
			}
			mem, e, err := pb.MinEnergyGivenProcPower(budget)
			if err != nil {
				return nil, mapErr(err)
			}
			resp.MemWords, resp.EnergyJ = mem, e
			resp.Note = "budget is watts per processor; p is free inside the feasible range"
		default:
			return nil, badObjective(objective)
		}
	case "matmul", "strassen":
		if alg == "strassen" && omega == 0 {
			omega = bounds.OmegaStrassen
		}
		pb := opt.MatMul{M: m, N: n, Omega: omega}
		switch objective {
		case "min_energy":
			mem := pb.OptimalMemory()
			resp.MemWords = mem
			resp.EnergyJ = pb.MinEnergy()
			resp.Note = fmt.Sprintf("energy is p-independent for p ∈ [n²/M, %s]; pick p for the time you need", "PMax(M)")
		case "min_energy_given_time":
			if aerr := needBudget(); aerr != nil {
				return nil, aerr
			}
			cfg, e, err := pb.MinEnergyGivenTime(budget)
			if err != nil {
				return nil, mapErr(err)
			}
			resp.P, resp.MemWords, resp.EnergyJ, resp.TimeS = cfg.P, cfg.Mem, e, budget
		case "min_time_given_energy":
			if aerr := needBudget(); aerr != nil {
				return nil, aerr
			}
			cfg, t, err := pb.MinTimeGivenEnergy(budget)
			if err != nil {
				return nil, mapErr(err)
			}
			resp.P, resp.MemWords, resp.TimeS, resp.EnergyJ = cfg.P, cfg.Mem, t, budget
		default:
			return nil, badObjective(objective)
		}
	case "":
		return nil, badRequest("parameter alg is required (nbody, matmul, strassen)")
	default:
		return nil, badRequest("unknown alg %q for /optimize (want nbody, matmul, strassen)", alg)
	}
	return resp, nil
}

func badObjective(objective string) *apiError {
	if objective == "" {
		return badRequest("parameter objective is required (min_energy, min_energy_given_time, min_time_given_energy, min_energy_given_power)")
	}
	return badRequest("unknown objective %q", objective)
}

// /simulate ----------------------------------------------------------------

// simulateQuery is the canonical tuple of one live run.
type simulateQuery struct {
	m      machine.Params
	alg    string
	n      int
	q      int
	c      int
	seed   int
	stream bool
}

func (sq simulateQuery) ranks() int { return sq.q * sq.q * sq.c }

func (sq simulateQuery) key() string {
	return fmt.Sprintf("simulate|m=%s|alg=%s|n=%d|q=%d|c=%d|seed=%d",
		sq.m.Name, sq.alg, sq.n, sq.q, sq.c, sq.seed)
}

// simulateResponse is the summary of a bounded live run: measured virtual
// time, the busiest rank's counters and the priced energy.
type simulateResponse struct {
	Kind    string `json:"kind"` // "summary", so stream consumers can spot it
	Machine string `json:"machine"`
	Alg     string `json:"alg"`
	N       int    `json:"n"`
	Q       int    `json:"q"`
	C       int    `json:"c"`
	P       int    `json:"p"`
	Seed    int    `json:"seed"`

	SimTimeS    float64              `json:"sim_time_s"`
	MaxStats    sim.Stats            `json:"max_stats"`
	Energy      core.EnergyBreakdown `json:"energy_breakdown_j"`
	TotalEnergy float64              `json:"total_energy_j"`
	ActivePairs int                  `json:"active_pairs"`
	WallMS      float64              `json:"wall_ms"`
}

func (s *Server) parseSimulate(req *http.Request) (simulateQuery, *apiError) {
	q := req.URL.Query()
	var sq simulateQuery
	m, aerr := s.resolveMachine(q)
	if aerr != nil {
		return sq, aerr
	}
	sq.m = m
	sq.alg = q.Get("alg")
	if sq.alg == "" {
		sq.alg = "matmul25d"
	}
	if sq.alg != "matmul25d" && sq.alg != "summa25d" {
		return sq, badRequest("unknown alg %q for /simulate (want matmul25d, summa25d)", sq.alg)
	}
	if sq.n, aerr = parseInt(q, "n", 0); aerr != nil {
		return sq, aerr
	}
	if sq.q, aerr = parseInt(q, "q", 0); aerr != nil {
		return sq, aerr
	}
	if sq.c, aerr = parseInt(q, "c", 1); aerr != nil {
		return sq, aerr
	}
	if sq.seed, aerr = parseInt(q, "seed", 1); aerr != nil {
		return sq, aerr
	}
	sq.stream = parseBool(q, "stream")
	if sq.n <= 0 || sq.q <= 0 || sq.c <= 0 {
		return sq, badRequest("n, q and c must be positive (got n=%d q=%d c=%d)", sq.n, sq.q, sq.c)
	}
	if sq.n%sq.q != 0 {
		return sq, badRequest("grid size q=%d must divide n=%d", sq.q, sq.n)
	}
	if sq.q%sq.c != 0 {
		return sq, badRequest("replication c=%d must divide q=%d", sq.c, sq.q)
	}
	return sq, nil
}

// checkSimSize enforces the admission size limits: a request that exceeds
// them is shed with the same typed 429 as a full queue, because no amount
// of retrying at this size will ever be admitted... except Retry-After is
// omitted — the caller must shrink the request instead.
func (s *Server) checkSimSize(sq simulateQuery) *apiError {
	if p := sq.ranks(); p > s.opts.MaxSimRanks {
		return &apiError{
			Status: http.StatusTooManyRequests, Code: "overloaded",
			Lane: "heavy", Reason: "oversized",
			Detail: fmt.Sprintf("p = q²·c = %d exceeds the server's limit of %d simulated ranks", p, s.opts.MaxSimRanks),
		}
	}
	if sq.n > s.opts.MaxSimN {
		return &apiError{
			Status: http.StatusTooManyRequests, Code: "overloaded",
			Lane: "heavy", Reason: "oversized",
			Detail: fmt.Sprintf("n = %d exceeds the server's limit of %d", sq.n, s.opts.MaxSimN),
		}
	}
	return nil
}

// runSimulate executes the run with ctx threaded into the rank runtime, so
// an expired deadline or a vanished client stops the simulation itself.
// The run is payload-free: the response reports only counters, time and
// energy, which Eqs. 1–2 compute from message lengths and charged flops,
// so the operands are phantoms (matmul.Phantom) and no matrix is drawn,
// multiplied or assembled. The counters are the numeric run's bit for bit
// and do not depend on the seed, which the response and cache key still
// carry.
func runSimulate(ctx context.Context, sq simulateQuery, observers []sim.Observer) (*simulateResponse, *apiError) {
	cost := core.SimCost(sq.m)
	cost.Observers, cost.Context = observers, ctx
	a, b := matmul.Phantom(sq.n, sq.n), matmul.Phantom(sq.n, sq.n)
	start := time.Now()
	var rr *matmul.RunResult
	var err error
	switch sq.alg {
	case "summa25d":
		rr, err = matmul.TwoPointFiveDSUMMA(cost, sq.q, sq.c, a, b)
	default:
		rr, err = matmul.TwoPointFiveD(cost, sq.q, sq.c, a, b)
	}
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return nil, deadlineError(err)
		}
		return nil, &apiError{Status: http.StatusInternalServerError, Code: "sim_failed", Detail: err.Error()}
	}
	energy := core.PriceSim(sq.m, rr.Sim)
	return &simulateResponse{
		Kind: "summary", Machine: sq.m.Name, Alg: sq.alg,
		N: sq.n, Q: sq.q, C: sq.c, P: sq.ranks(), Seed: sq.seed,
		SimTimeS: rr.Sim.Time(), MaxStats: rr.Sim.MaxStats(),
		Energy: energy, TotalEnergy: energy.Total(),
		ActivePairs: rr.Sim.ActivePairs,
		WallMS:      float64(time.Since(start)) / float64(time.Millisecond),
	}, nil
}

func (s *Server) handleSimulate(ctx context.Context, w *statusWriter, req *http.Request) {
	sq, aerr := s.parseSimulate(req)
	if aerr != nil {
		writeAPIError(w, aerr)
		return
	}
	if aerr := s.checkSimSize(sq); aerr != nil {
		writeAPIError(w, aerr)
		return
	}
	if sq.stream {
		s.streamSimulate(ctx, w, sq)
		return
	}
	s.cachedQuery(ctx, w, s.heavy, sq.key(), func() (any, *apiError) {
		return runSimulate(ctx, sq, nil)
	})
}

// streamSimulate runs the simulation with a JSONL observer writing events
// straight to the response as NDJSON, finishing with one summary (or
// error) line. Streams bypass the cache — each one is live — but still go
// through heavy-lane admission.
func (s *Server) streamSimulate(ctx context.Context, w *statusWriter, sq simulateQuery) {
	release, err := s.heavy.admit(ctx)
	if err != nil {
		if oe, ok := err.(*OverloadError); ok {
			writeAPIError(w, &apiError{
				Status: http.StatusTooManyRequests, Code: "overloaded",
				Detail: oe.Detail, Lane: oe.Lane, Reason: oe.Reason,
				RetryAfterS: oe.RetryAfterS,
			})
			return
		}
		writeAPIError(w, deadlineError(err))
		return
	}
	defer release()
	start := time.Now()
	defer func() { s.heavy.observeService(time.Since(start).Seconds()) }()
	if s.testHeavyHold != nil {
		s.testHeavyHold(ctx)
	}
	if err := ctx.Err(); err != nil {
		writeAPIError(w, deadlineError(err))
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	fw := &flushWriter{w: w}
	jw := obs.NewJSONLWriter(fw)
	resp, aerr := runSimulate(ctx, sq, []sim.Observer{jw})
	_ = jw.Flush() // a stream write failure means the client left
	if aerr != nil {
		// The status line is gone; report the failure in-band as the
		// final NDJSON record.
		aerr.Status = 0
		writeNDJSONLine(fw, map[string]any{"kind": "error", "error": aerr.Code, "detail": aerr.Detail})
		return
	}
	writeNDJSONLine(fw, resp)
}

// flushWriter pushes every write through to the client so event lines
// stream out as the simulation produces them.
type flushWriter struct {
	w *statusWriter
}

func (fw *flushWriter) Write(b []byte) (int, error) {
	n, err := fw.w.Write(b)
	fw.w.Flush()
	return n, err
}

func writeNDJSONLine(fw *flushWriter, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		return
	}
	_, _ = fw.Write(append(b, '\n'))
}
