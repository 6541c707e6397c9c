// Command benchmark is the repository's benchmark: four workloads, the
// end-to-end metrics a user of the simulator and of the query service sees,
// and per-layer probes with a traced pass. See README.md.
//
//	benchmark --workload sim_scale --seed 1 --seconds 20 --trace 0
//
// runs one workload in this process and prints one JSON object as the last
// line of standard output. The other modes drive that one:
//
//	benchmark -set a.json -runs 10     every workload, 10 seeds each, each in a fresh process
//	benchmark -compare a.json b.json   medians, quartiles and the fixed bounds, row by row
//	benchmark -manifest                the content of BENCHMARK.json
//	benchmark -write-golden golden.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
)

// The host settings every number is taken under; -set records them.
const (
	goMaxProcs = 2
	gcPercent  = 100
)

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		workload    = flag.String("workload", "", "workload to run: sim_scale, sim_mix, serve_cheap or serve_heavy")
		seed        = flag.Int64("seed", 1, "seed of every generated input")
		seconds     = flag.Float64("seconds", runSeconds, "how long the run measures")
		trace       = flag.Int("trace", 0, "1 runs the traced pass and the probe suite and reports the per-layer metrics")
		spansPath   = flag.String("spans", "", "with -trace 1, write the recorded spans to this file")
		setPath     = flag.String("set", "", "run every workload in fresh processes and write the results to this file")
		runs        = flag.Int("runs", 1, "with -set, untraced runs per workload (seeds seed, seed+1, …)")
		compare     = flag.Bool("compare", false, "compare two -set files given as arguments; exit 1 on a regression")
		manifestOut = flag.Bool("manifest", false, "print BENCHMARK.json")
		goldenOut   = flag.String("write-golden", "", "run every pinned member once and write its statistics to this file")
	)
	flag.Parse()
	runtime.GOMAXPROCS(goMaxProcs)
	debug.SetGCPercent(gcPercent)

	var err error
	switch {
	case *manifestOut:
		err = printJSON(theManifest(), "  ")
	case *goldenOut != "":
		err = writeGolden(*goldenOut)
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare takes two -set files")
			break
		}
		var regressed bool
		if regressed, err = compareSets(os.Stdout, flag.Arg(0), flag.Arg(1)); err == nil && regressed {
			os.Exit(1)
		}
	case *setPath != "":
		err = runSet(*setPath, *seed, *runs, *seconds)
	case *workload != "":
		var res result
		if res, err = runOnce(*workload, *seed, *seconds, *trace != 0, *spansPath); err == nil {
			err = printJSON(res, "")
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func printJSON(v any, indent string) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", indent)
	return enc.Encode(v)
}

// runWorkload runs one pass of the named workload.
func runWorkload(name string, cfg runConfig) (passResult, error) {
	switch name {
	case "sim_scale", "sim_mix":
		return runSim(simWorkloads[name], cfg)
	case "serve_cheap":
		return runServeCheap(cfg)
	case "serve_heavy":
		return runServeHeavy(cfg)
	}
	return passResult{}, fmt.Errorf("unknown workload %q", name)
}

// tracedShare is the part of --seconds a traced run gives the traced pass of
// the workload; the probe suite, whose work is fixed, takes about the rest.
const tracedShare = 0.6

// runOnce is one run of the benchmark in this process. Untraced, it reports
// the end-to-end metrics. Traced, it records spans around every call into
// the program, runs the probe suite, and reports the per-layer metrics.
func runOnce(workload string, seed int64, seconds float64, traced bool, spansPath string) (result, error) {
	res := result{Metrics: map[string]metricValue{}}
	cfg := runConfig{seed: seed, seconds: seconds}
	if !traced {
		pass, err := runWorkload(workload, cfg)
		if err != nil {
			return res, err
		}
		pass.endToEnd["peak_rss_mb"] = peakRSSMiB()
		for _, spec := range endToEnd {
			res.Metrics[spec.Name] = metricValue{pass.endToEnd[spec.Name], spec.Unit}
		}
		return finish(res, pass), nil
	}

	cfg.rec = newRecorder(workload)
	cfg.root = cfg.rec.begin(0, "workload")
	cfg.seconds = seconds * tracedShare
	pass, err := runWorkload(workload, cfg)
	if err != nil {
		return res, err
	}
	if err := runProbes(cfg, pass.layer); err != nil {
		return res, err
	}
	cfg.rec.end(cfg.root)

	spans := cfg.rec.finished()
	var selfNs int64
	for _, ns := range selfTimes(spans) {
		selfNs += ns
	}
	root := spans[0] // the first span begun; every span is closed by now
	pass.layer["trace.self_over_wall"] = float64(selfNs) / float64(root.EndNs-root.StartNs)
	if spansPath != "" {
		if err := writeSpans(spansPath, spans); err != nil {
			return res, err
		}
	}
	// A layer the workload never enters reads 0.
	for _, spec := range perLayer {
		res.Metrics[spec.Name] = metricValue{pass.layer[spec.Name], spec.Unit}
	}
	return finish(res, pass), nil
}

func finish(res result, pass passResult) result {
	for _, e := range pass.errs {
		fmt.Fprintln(os.Stderr, "benchmark: failed:", e)
	}
	res.Attempted, res.Failed = pass.attempted, pass.failed
	res.Correct = pass.failed == 0 && pass.attempted > 0
	return res
}
