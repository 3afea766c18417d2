package bench

import (
	"fmt"
	"io"
	"strings"
)

// Point is one measurement: X is the total message size in bytes (or
// the figure's other axis unit, or a scenario index), Y the metric
// (ns for "us" figures, MB/s for bandwidth figures).
type Point struct {
	X int
	Y float64
}

// Series is one curve of a figure.
type Series struct {
	Name   string
	Points []Point
}

// Figure is one reproduced evaluation figure.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string // "us" or "MB/s"
	Series []Series
	// indexX marks a scenario axis: X indexes a list from 0, so plots
	// space it linearly.
	indexX bool
}

// Y returns the series value at size x (and whether it exists).
func (s *Series) Y(x int) (float64, bool) {
	for _, p := range s.Points {
		if p.X == x {
			return p.Y, true
		}
	}
	return 0, false
}

// MaxY returns the largest Y of the series (0 when empty).
func (s *Series) MaxY() float64 {
	max := 0.0
	for _, p := range s.Points {
		if p.Y > max {
			max = p.Y
		}
	}
	return max
}

// value converts a raw point to the figure's display unit.
func (f *Figure) value(y float64) float64 {
	if f.YLabel == "us" {
		return y / 1e3 // stored ns
	}
	return y
}

// WriteTable renders the figure as an aligned text table, sizes down the
// rows and one column per series.
func (f *Figure) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "# %s — %s\n", f.ID, f.Title)
	fmt.Fprintf(w, "# Y: %s\n", f.YLabel)
	if len(f.Series) == 0 {
		return
	}
	cols := make([]string, 0, len(f.Series)+1)
	cols = append(cols, "size")
	for _, s := range f.Series {
		cols = append(cols, s.Name)
	}
	rows := [][]string{cols}
	for _, p := range f.Series[0].Points {
		row := []string{fmtSize(p.X)}
		for _, s := range f.Series {
			if y, ok := s.Y(p.X); ok {
				row = append(row, fmt.Sprintf("%.2f", f.value(y)))
			} else {
				row = append(row, "-")
			}
		}
		rows = append(rows, row)
	}
	widths := make([]int, len(cols))
	for _, row := range rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	for _, row := range rows {
		var b strings.Builder
		for i, c := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%*s", widths[i], c)
		}
		fmt.Fprintln(w, b.String())
	}
}

// WriteCSV renders the figure as CSV with a header row.
func (f *Figure) WriteCSV(w io.Writer) {
	cols := []string{"size_bytes"}
	for _, s := range f.Series {
		cols = append(cols, strings.ReplaceAll(s.Name, ",", ";"))
	}
	fmt.Fprintln(w, strings.Join(cols, ","))
	if len(f.Series) == 0 {
		return
	}
	for _, p := range f.Series[0].Points {
		row := []string{fmt.Sprintf("%d", p.X)}
		for _, s := range f.Series {
			if y, ok := s.Y(p.X); ok {
				row = append(row, fmt.Sprintf("%.3f", f.value(y)))
			} else {
				row = append(row, "")
			}
		}
		fmt.Fprintln(w, strings.Join(row, ","))
	}
}

// fmtSize renders byte sizes the way the paper's axes do (4, 1K, 8M...).
func fmtSize(n int) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dM", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dK", n>>10)
	default:
		return fmt.Sprintf("%d", n)
	}
}

// PowersOfTwo returns {from, 2*from, ..., to} (inclusive when to is a
// power-of-two multiple of from).
func PowersOfTwo(from, to int) []int {
	var out []int
	for s := from; s <= to; s *= 2 {
		out = append(out, s)
	}
	return out
}

// LatencySizes is the paper's small-message axis (4 B – 32 KB).
func LatencySizes() []int { return PowersOfTwo(4, 32<<10) }

// BandwidthSizes is the paper's large-message axis (32 KB – 8 MB).
func BandwidthSizes() []int { return PowersOfTwo(32<<10, 8<<20) }
