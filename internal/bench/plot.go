package bench

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// plot symbols, one per series, in order.
var plotMarks = []byte{'*', '+', 'x', 'o', '#', '@', '%'}

// WritePlot renders the figure as an ASCII log-log chart (the paper's
// figures are all log-log), width x height characters of plot area. A
// scenario axis is linear instead: its X is an index from 0.
func (f *Figure) WritePlot(w io.Writer, width, height int) {
	if width < 20 {
		width = 64
	}
	if height < 5 {
		height = 20
	}
	// xFloor is the smallest plottable X: log scales cannot place 0.
	scale, scaleName, xFloor := math.Log2, "log-log", 1
	if f.indexX {
		scale, scaleName, xFloor = func(x float64) float64 { return x }, "lin-log", 0
	}
	fmt.Fprintf(w, "# %s — %s  [Y: %s, %s]\n", f.ID, f.Title, f.YLabel, scaleName)
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, s := range f.Series {
		for _, p := range s.Points {
			if p.X < xFloor || p.Y <= 0 {
				continue
			}
			minX = math.Min(minX, float64(p.X))
			maxX = math.Max(maxX, float64(p.X))
			y := f.value(p.Y)
			minY = math.Min(minY, y)
			maxY = math.Max(maxY, y)
		}
	}
	if minX > maxX || minY > maxY {
		fmt.Fprintln(w, "(no data)")
		return
	}
	lx0, lx1 := scale(minX), scale(maxX)
	ly0, ly1 := math.Log10(minY), math.Log10(maxY)
	if lx1 == lx0 {
		lx1 = lx0 + 1
	}
	if ly1 == ly0 {
		ly1 = ly0 + 1
	}
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = fillRow(width, ' ')
	}
	for si, s := range f.Series {
		mark := plotMarks[si%len(plotMarks)]
		for _, p := range s.Points {
			if p.X < xFloor || p.Y <= 0 {
				continue
			}
			cx := int(math.Round((scale(float64(p.X)) - lx0) / (lx1 - lx0) * float64(width-1)))
			cy := int(math.Round((math.Log10(f.value(p.Y)) - ly0) / (ly1 - ly0) * float64(height-1)))
			row := height - 1 - cy
			if grid[row][cx] == ' ' {
				grid[row][cx] = mark
			}
		}
	}
	// Y-axis labels on a handful of rows.
	for r := 0; r < height; r++ {
		label := "        "
		if r == 0 || r == height-1 || r == height/2 {
			ly := ly1 - (ly1-ly0)*float64(r)/float64(height-1)
			label = fmt.Sprintf("%8.4g", math.Pow(10, ly))
		}
		fmt.Fprintf(w, "%s |%s\n", label, string(grid[r]))
	}
	fmt.Fprintf(w, "%s +%s\n", strings.Repeat(" ", 8), strings.Repeat("-", width))
	left := fmtSize(int(minX))
	right := fmtSize(int(maxX))
	pad := width - len(left) - len(right)
	if pad < 1 {
		pad = 1
	}
	fmt.Fprintf(w, "%s  %s%s%s\n", strings.Repeat(" ", 8), left, strings.Repeat(" ", pad), right)
	for si, s := range f.Series {
		fmt.Fprintf(w, "  %c %s\n", plotMarks[si%len(plotMarks)], s.Name)
	}
}

func fillRow(n int, b byte) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = b
	}
	return out
}
