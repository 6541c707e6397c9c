package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"text/tabwriter"
)

// runRecord is one run of a set.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	Result   result `json:"result"`
}

// runSetFile is what -set writes: the host settings the numbers were taken
// under and every run made. It carries no wall-clock stamp.
type runSetFile struct {
	Go         string      `json:"go"`
	GoMaxProcs int         `json:"gomaxprocs"`
	GCPercent  int         `json:"gogc"`
	RunSeconds float64     `json:"run_seconds"`
	Runs       []runRecord `json:"runs"`
}

// runSet runs every workload `runs` times untraced and once traced, each
// run in a fresh process (so that peak memory is that run's alone), and
// writes the results to path.
func runSet(path string, seed int64, runs int, seconds float64) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	set := runSetFile{Go: runtime.Version(), GoMaxProcs: goMaxProcs, GCPercent: gcPercent, RunSeconds: seconds}
	for _, w := range workloads {
		for i := 0; i <= runs; i++ {
			rec := runRecord{Workload: w.Name, Seed: seed + int64(i), Trace: i == runs}
			trace := "0"
			if rec.Trace {
				rec.Seed, trace = seed, "1"
			}
			cmd := exec.Command(exe, "--workload", w.Name, "--seed", strconv.FormatInt(rec.Seed, 10),
				"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", trace)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.Name, rec.Seed, err)
			}
			if rec.Result, err = lastLine(out); err != nil {
				return fmt.Errorf("%s seed %d: %w", w.Name, rec.Seed, err)
			}
			set.Runs = append(set.Runs, rec)
			printRun(os.Stdout, rec)
		}
	}
	buf, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// lastLine parses the result a run printed as its last line.
func lastLine(out []byte) (result, error) {
	var res result
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	err := json.Unmarshal(lines[len(lines)-1], &res)
	return res, err
}

// printRun prints every metric of a run by name, with its unit.
func printRun(w io.Writer, rec runRecord) {
	specs := endToEnd
	if rec.Trace {
		specs = perLayer
	}
	fmt.Fprintf(w, "%s seed=%d trace=%t attempted=%d failed=%d\n", rec.Workload, rec.Seed, rec.Trace, rec.Result.Attempted, rec.Result.Failed)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, s := range specs {
		m := rec.Result.Metrics[s.Name]
		fmt.Fprintf(tw, "  %s\t%.6g\t%s\n", s.Name, m.Value, m.Unit)
	}
	tw.Flush()
}

func readSet(path string) (runSetFile, error) {
	var set runSetFile
	buf, err := os.ReadFile(path)
	if err != nil {
		return set, err
	}
	if err := json.Unmarshal(buf, &set); err != nil {
		return set, fmt.Errorf("%s: %w", path, err)
	}
	return set, nil
}

// values collects one metric of one workload over the untraced runs of a set.
func (s runSetFile) values(workload, metric string) []float64 {
	var vs []float64
	for _, r := range s.Runs {
		if m, ok := r.Result.Metrics[metric]; ok && r.Workload == workload && !r.Trace {
			vs = append(vs, m.Value)
		}
	}
	return vs
}

func (s runSetFile) failed(workload string) (failed, attempted int) {
	for _, r := range s.Runs {
		if r.Workload == workload {
			failed += r.Result.Failed
			attempted += r.Result.Attempted
		}
	}
	return
}

// verdict judges one (metric, workload) pairing of a parent set a and a
// change's set b. The change regressed when its median is worse than the
// parent's by more than the bound. Otherwise, where either side's spread
// between quartiles is wider than the bound, the pairing is unresolved —
// not unchanged — unless every run of the change reads better than every
// run of the parent.
func verdict(spec metricSpec, a, b []float64) string {
	sign := 1.0 // makes "worse" positive
	if spec.Better == "higher" {
		sign = -1
	}
	worse := sign * (median(b) - median(a)) / median(a)
	if worse > spec.Bound {
		return "regressed"
	}
	if len(a) < 2 || len(b) < 2 {
		return "ok"
	}
	if spread(a) > spec.Bound || spread(b) > spec.Bound {
		sa, sb := sorted(a), sorted(b)
		allBetter := sign*(sb[len(sb)-1]-sa[0]) < 0 && sign*(sb[0]-sa[len(sa)-1]) < 0
		if !allBetter {
			return "unresolved"
		}
	}
	return "ok"
}

// compareSets prints one row per (end-to-end metric, workload) and reports
// whether anything regressed or any workload failed more operations.
func compareSets(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := readSet(pathB)
	if err != nil {
		return false, err
	}
	regressed := false
	out := bufio.NewWriter(w)
	defer out.Flush()
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tparent median [q1, q3] n\tchange median [q1, q3] n\tchange\tbound\tverdict")
	for _, wl := range workloads {
		for _, spec := range endToEnd {
			va, vb := a.values(wl.Name, spec.Name), b.values(wl.Name, spec.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v := verdict(spec, va, vb)
			regressed = regressed || v == "regressed"
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%+.1f%%\t%.0f%% %s\t%s\n", wl.Name, spec.Name, spec.Unit,
				summary(va), summary(vb), 100*(median(vb)-median(va))/median(va), 100*spec.Bound, spec.Better, v)
		}
		fa, na := a.failed(wl.Name)
		fb, nb := b.failed(wl.Name)
		v := "ok"
		if na > 0 && nb > 0 && float64(fb)/float64(nb) > float64(fa)/float64(na) {
			v, regressed = "regressed", true
		}
		fmt.Fprintf(tw, "%s\tfailed_frac\tratio\t%d/%d\t%d/%d\t\t0%% lower\t%s\n", wl.Name, fa, na, fb, nb, v)
	}
	tw.Flush()
	return regressed, nil
}

func summary(vs []float64) string {
	if len(vs) < 2 {
		return fmt.Sprintf("%.5g n=%d", median(vs), len(vs))
	}
	q1, q3 := quartiles(vs)
	return fmt.Sprintf("%.5g [%.5g, %.5g] n=%d", median(vs), q1, q3, len(vs))
}
