package report

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// golden compares got against testdata/<name> and rewrites it under -update.
func golden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s:\n--- got\n%s\n--- want\n%s", path, got, want)
	}
}

// goldenTable is a fixed table exercising every formatting path: strings,
// integers, small/large/negative floats and scientific notation.
func goldenTable() *Table {
	tb := NewTable("Golden: formatting sampler", "name", "count", "value", "tiny")
	tb.AddRow("alpha", 1, 3.14159, 1e-9)
	tb.AddRow("beta", 42, -2.5, 6.02e23)
	tb.AddRow("gamma", 0, 0.0, -0.001)
	tb.AddRow("a much longer row label", 123456, 1048576.0, 0.5)
	return tb
}

// TestGoldenTable pins the reporting layer's table format so a formatting
// change (float precision, separators) is a reviewed diff rather than a
// silent drift in every artifact built on top.
func TestGoldenTable(t *testing.T) {
	golden(t, "table.golden", "=== Markdown ===\n"+goldenTable().Markdown())
}

// TestGoldenChart pins the ASCII chart renderer, linear and log axes.
func TestGoldenChart(t *testing.T) {
	lin := Series{Name: "linear"}
	quad := Series{Name: "quadratic"}
	for x := 1.0; x <= 8; x++ {
		lin.Add(x, 2*x)
		quad.Add(x, x*x)
	}
	var b strings.Builder
	b.WriteString(Chart("Golden: linear axes", 40, 10, false, false, lin, quad))
	b.WriteString("\n")
	b.WriteString(Chart("Golden: log-log", 40, 10, true, true, lin, quad))
	golden(t, "chart.golden", b.String())
}
