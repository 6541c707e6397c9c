// Package report renders experiment results as Markdown tables and coarse
// ASCII charts — the output layer of the cmd/ tools.
package report

import (
	"fmt"
	"math"
	"strings"
)

// Table is a simple column-oriented text table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; values are formatted with %v, floats compactly.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = FormatFloat(v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// FormatFloat renders a float compactly: fixed-point for moderate
// magnitudes, scientific otherwise.
func FormatFloat(v float64) string {
	a := math.Abs(v)
	switch {
	case v == 0:
		return "0"
	case a >= 0.01 && a < 1e6:
		s := fmt.Sprintf("%.4f", v)
		s = strings.TrimRight(s, "0")
		return strings.TrimRight(s, ".")
	default:
		return fmt.Sprintf("%.4g", v)
	}
}

// Series is a named list of (x, y) points for figure data.
type Series struct {
	Name string
	X, Y []float64
}

// Add appends a point.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Chart renders one or more series as a coarse ASCII scatter plot of the
// given size; logX/logY select logarithmic axes. Each series is drawn with
// its own marker rune.
func Chart(title string, width, height int, logX, logY bool, series ...Series) string {
	if width < 16 {
		width = 16
	}
	if height < 6 {
		height = 6
	}
	tx := func(v float64) float64 {
		if logX {
			return math.Log10(v)
		}
		return v
	}
	ty := func(v float64) float64 {
		if logY {
			return math.Log10(v)
		}
		return v
	}
	xMin, xMax := math.Inf(1), math.Inf(-1)
	yMin, yMax := math.Inf(1), math.Inf(-1)
	for _, s := range series {
		for i := range s.X {
			x, y := tx(s.X[i]), ty(s.Y[i])
			if math.IsInf(x, 0) || math.IsNaN(x) || math.IsInf(y, 0) || math.IsNaN(y) {
				continue
			}
			xMin, xMax = math.Min(xMin, x), math.Max(xMax, x)
			yMin, yMax = math.Min(yMin, y), math.Max(yMax, y)
		}
	}
	if xMin > xMax || yMin > yMax {
		return title + "\n(no data)\n"
	}
	if xMax == xMin {
		xMax = xMin + 1
	}
	if yMax == yMin {
		yMax = yMin + 1
	}
	grid := make([][]rune, height)
	for r := range grid {
		grid[r] = []rune(strings.Repeat(" ", width))
	}
	markers := []rune{'*', 'o', '+', 'x', '#', '@'}
	for si, s := range series {
		mark := markers[si%len(markers)]
		for i := range s.X {
			x, y := tx(s.X[i]), ty(s.Y[i])
			if math.IsInf(x, 0) || math.IsNaN(x) || math.IsInf(y, 0) || math.IsNaN(y) {
				continue
			}
			col := int((x - xMin) / (xMax - xMin) * float64(width-1))
			row := height - 1 - int((y-yMin)/(yMax-yMin)*float64(height-1))
			grid[row][col] = mark
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "y: [%s, %s]%s\n", FormatFloat(untx(yMin, logY)), FormatFloat(untx(yMax, logY)), axisNote(logY))
	for _, row := range grid {
		b.WriteString("| ")
		b.WriteString(string(row))
		b.WriteByte('\n')
	}
	b.WriteString("+-")
	b.WriteString(strings.Repeat("-", width))
	b.WriteByte('\n')
	fmt.Fprintf(&b, "x: [%s, %s]%s\n", FormatFloat(untx(xMin, logX)), FormatFloat(untx(xMax, logX)), axisNote(logX))
	for si, s := range series {
		fmt.Fprintf(&b, "  %c %s\n", markers[si%len(markers)], s.Name)
	}
	return b.String()
}

func untx(v float64, log bool) float64 {
	if log {
		return math.Pow(10, v)
	}
	return v
}

func axisNote(log bool) string {
	if log {
		return " (log scale)"
	}
	return ""
}

// Markdown returns the GitHub-flavored Markdown form of the table.
func (t *Table) Markdown() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "**%s**\n\n", t.Title)
	}
	writeRow := func(cells []string) {
		b.WriteString("|")
		for _, c := range cells {
			b.WriteString(" ")
			b.WriteString(strings.ReplaceAll(c, "|", "\\|"))
			b.WriteString(" |")
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = "---"
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}
