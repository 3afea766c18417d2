// Command nmad-bench regenerates the paper's evaluation figures on the
// simulated testbed and prints them as aligned tables or CSV.
//
// Usage:
//
//	nmad-bench                 # all figures, tables to stdout
//	nmad-bench -fig fig7       # one figure
//	nmad-bench -fig ext-hedge,ext-adaptive  # a comma-separated list
//	nmad-bench -plot -fig fig7 # ASCII plot
//	nmad-bench -csv -out dir   # write <fig>.csv files into dir
//	nmad-bench -iters 16       # more timed iterations per point
//	nmad-bench -emit-json BENCH_6.json  # pinned perf report (exits 1
//	                           # if an allocation budget is exceeded)
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"newmad/internal/bench"
)

func main() {
	var (
		figFlag  = flag.String("fig", "all", "comma-separated figure ids ("+strings.Join(bench.FigureIDs(), ", ")+") or 'all'")
		csvFlag  = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		plotFlag = flag.Bool("plot", false, "render ASCII plots (log-log; scenario axes linear) instead of tables")
		outDir   = flag.String("out", "", "write one file per figure into this directory instead of stdout")
		warmup   = flag.Int("warmup", bench.Default().Warmup, "warmup iterations per point")
		iters    = flag.Int("iters", bench.Default().Iters, "timed iterations per point (>= 1)")
		verify   = flag.Bool("verify", false, "verify payload integrity during measurement")
		check    = flag.Bool("check", false, "evaluate every paper claim and print a pass/fail table")
		emitJSON = flag.String("emit-json", "", "write the pinned perf report (BENCH_*.json schema) to this path; exits 1 on an allocation budget regression")
	)
	flag.Parse()
	if *iters < 1 || *warmup < 0 {
		fmt.Fprintln(os.Stderr, "nmad-bench: -iters must be >= 1 and -warmup >= 0")
		os.Exit(2)
	}
	q := bench.Quality{Warmup: *warmup, Iters: *iters, Verify: *verify}
	if *emitJSON != "" {
		report := bench.BuildPerfReport(q)
		f, err := os.Create(*emitJSON)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nmad-bench:", err)
			os.Exit(1)
		}
		werr := report.WriteJSON(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintln(os.Stderr, "nmad-bench:", werr)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *emitJSON)
		if err := report.CheckBudgets(); err != nil {
			fmt.Fprintln(os.Stderr, "nmad-bench:", err)
			os.Exit(1)
		}
		return
	}
	if *check {
		claims := bench.CheckClaims(q)
		bench.WriteClaims(os.Stdout, claims)
		for _, c := range claims {
			if !c.OK {
				os.Exit(1)
			}
		}
		return
	}
	mode := modeTable
	if *csvFlag {
		mode = modeCSV
	}
	if *plotFlag {
		mode = modePlot
	}
	ids := bench.FigureIDs()
	if *figFlag != "all" {
		ids = strings.Split(*figFlag, ",")
	}
	if err := run(ids, mode, *outDir, q); err != nil {
		fmt.Fprintln(os.Stderr, "nmad-bench:", err)
		os.Exit(1)
	}
}

type outMode int

const (
	modeTable outMode = iota
	modeCSV
	modePlot
)

func run(ids []string, mode outMode, outDir string, q bench.Quality) error {
	for _, id := range ids {
		fig, err := bench.Build(id, q)
		if err != nil {
			return err
		}
		out := os.Stdout
		if outDir != "" {
			ext := ".txt"
			if mode == modeCSV {
				ext = ".csv"
			}
			f, err := os.Create(filepath.Join(outDir, id+ext))
			if err != nil {
				return err
			}
			writeFig(fig, mode, f)
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", f.Name())
			continue
		}
		writeFig(fig, mode, out)
		fmt.Fprintln(out)
	}
	return nil
}

func writeFig(fig *bench.Figure, mode outMode, f *os.File) {
	switch mode {
	case modeCSV:
		fig.WriteCSV(f)
	case modePlot:
		fig.WritePlot(f, 64, 18)
	default:
		fig.WriteTable(f)
	}
}
