package report

import (
	"strings"
	"testing"
)

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		1.5:     "1.5",
		2:       "2",
		1e-10:   "1e-10",
		123456:  "123456",
		1234567: "1.235e+06",
	}
	for v, want := range cases {
		if got := FormatFloat(v); got != want {
			t.Errorf("FormatFloat(%g) = %q, want %q", v, got, want)
		}
	}
}

func TestChartBasic(t *testing.T) {
	var s Series
	s.Name = "linear"
	for i := 1; i <= 10; i++ {
		s.Add(float64(i), float64(i))
	}
	out := Chart("test chart", 40, 10, false, false, s)
	if !strings.Contains(out, "test chart") || !strings.Contains(out, "linear") {
		t.Errorf("chart missing labels:\n%s", out)
	}
	if !strings.Contains(out, "*") {
		t.Errorf("chart missing markers:\n%s", out)
	}
	// An increasing series puts a marker in the top-right region and
	// bottom-left region.
	lines := strings.Split(out, "\n")
	var plotLines []string
	for _, l := range lines {
		if strings.HasPrefix(l, "| ") {
			plotLines = append(plotLines, l)
		}
	}
	if len(plotLines) != 10 {
		t.Fatalf("plot rows: %d", len(plotLines))
	}
	top, bottom := plotLines[0], plotLines[len(plotLines)-1]
	if !strings.Contains(top, "*") || !strings.Contains(bottom, "*") {
		t.Error("increasing series should span bottom to top")
	}
	if strings.Index(top, "*") < strings.Index(bottom, "*") {
		t.Error("top-row marker should sit right of bottom-row marker")
	}
}

func TestChartLogAxes(t *testing.T) {
	var s Series
	for i := 0; i < 6; i++ {
		s.Add(float64(int(1)<<uint(i)), 1e3*float64(int(1)<<uint(2*i)))
	}
	s.Name = "pow"
	out := Chart("log chart", 30, 8, true, true, s)
	if !strings.Contains(out, "(log scale)") {
		t.Errorf("log axes not annotated:\n%s", out)
	}
}

func TestChartEmpty(t *testing.T) {
	out := Chart("empty", 30, 8, false, false, Series{Name: "none"})
	if !strings.Contains(out, "no data") {
		t.Errorf("empty chart should say so:\n%s", out)
	}
}

func TestChartMultipleSeries(t *testing.T) {
	a := Series{Name: "A"}
	b := Series{Name: "B"}
	for i := 1; i <= 5; i++ {
		a.Add(float64(i), float64(i))
		b.Add(float64(i), float64(6-i))
	}
	out := Chart("two", 30, 8, false, false, a, b)
	if !strings.Contains(out, "*") || !strings.Contains(out, "o") {
		t.Errorf("distinct markers expected:\n%s", out)
	}
	if !strings.Contains(out, "A") || !strings.Contains(out, "B") {
		t.Errorf("legend expected:\n%s", out)
	}
}

func TestChartClampsTinySizes(t *testing.T) {
	var s Series
	s.Add(1, 1)
	s.Add(2, 2)
	out := Chart("tiny", 1, 1, false, false, s)
	if len(strings.Split(out, "\n")) < 8 {
		t.Errorf("minimum dimensions not enforced:\n%s", out)
	}
}

func TestTableMarkdown(t *testing.T) {
	tb := NewTable("MD", "a", "b|c")
	tb.AddRow("x", 1.5)
	md := tb.Markdown()
	if !strings.Contains(md, "**MD**") {
		t.Errorf("missing title: %s", md)
	}
	if !strings.Contains(md, "| a | b\\|c |") {
		t.Errorf("pipes must be escaped in headers: %s", md)
	}
	if !strings.Contains(md, "| --- | --- |") {
		t.Errorf("missing separator: %s", md)
	}
	if !strings.Contains(md, "| x | 1.5 |") {
		t.Errorf("missing row: %s", md)
	}
}
