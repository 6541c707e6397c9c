package analytics

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"strings"
	"testing"

	"perfscale/internal/machine"
)

var update = flag.Bool("update", false, "rewrite BENCH_scaling.json from this build's curves")

// curvesGolden is the committed curve file at the repository root.
const curvesGolden = "../../BENCH_scaling.json"

// TestCurvesGolden pins the quick efficiency-vs-p curves on simdefault to
// BENCH_scaling.json byte for byte: every row, phase span and plateau
// annotation is a virtual-time quantity, so any difference means the model
// moved. After an intended model change, rewrite the file with
// `go test ./internal/analytics -run CurvesGolden -update`. The file must
// also keep covering every curve family.
func TestCurvesGolden(t *testing.T) {
	rows, err := QuickCurves(machine.SimDefault())
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := writeCurves(&got, "simdefault", rows); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(curvesGolden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(curvesGolden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		g, w := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(g) && i < len(w); i++ {
			if g[i] != w[i] {
				t.Fatalf("fresh curves differ from %s at line %d:\n  got  %s\n  want %s\n(rewrite with -update after an intended model change)",
					curvesGolden, i+1, g[i], w[i])
			}
		}
		t.Fatalf("fresh curves differ from %s in length: %d lines, want %d", curvesGolden, len(g), len(w))
	}

	var f curveFile
	if err := json.Unmarshal(want, &f); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, r := range f.Curves {
		seen[r.Family+"/"+r.Algorithm] = true
	}
	for _, fam := range []string{
		"strong/matmul-2.5d", "weak/matmul-2.5d",
		"strong/nbody", "weak/nbody", "weak/fft-tree",
	} {
		if !seen[fam] {
			t.Errorf("curve file misses %s (have %v)", fam, seen)
		}
	}
}

// curveFile is the curves artifact writeCurves writes. BENCH_scaling.json
// is the committed one, a golden file of QuickCurves on simdefault.
type curveFile struct {
	Machine string       `json:"machine"`
	Curves  []CurvePoint `json:"scaling_curves"`
}

// writeCurves writes the curves artifact to w.
func writeCurves(w io.Writer, machineName string, curves []CurvePoint) error {
	buf, err := json.MarshalIndent(curveFile{Machine: machineName, Curves: curves}, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(buf, '\n'))
	return err
}
