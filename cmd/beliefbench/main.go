// Command beliefbench regenerates the paper's evaluation (Sect. 6) as a
// report: Table 1 (relative overhead grid), Figure 6 (overhead vs. number
// of annotations), Table 2 (query latencies), and the Sect. 5.4 space-bound
// ablation. It reproduces the paper's artefacts and gates nothing;
// performance regressions are measured by the repository benchmark
// (benchmark/run.sh, BENCHMARK.json) and judged by cmd/benchdiff.
//
// Usage:
//
//	beliefbench [-table1] [-figure6] [-table2] [-bounds] [-full] [-n N]
//
// Without a selection all four artefacts are printed. Without -full,
// scaled-down parameters keep the run under a minute; -full uses the
// paper's parameters (n = 10,000 annotations, 10 databases per Table 1
// cell, 1,000 executions per query) and can take many minutes and several
// GB of memory for the m=100/uniform cells. -n overrides the number of
// annotations (Figure 6's axis is cut off at n).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"beliefdb/internal/bench"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "beliefbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("beliefbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		table1  = fs.Bool("table1", false, "print the Table 1 overhead grid")
		figure6 = fs.Bool("figure6", false, "print the Figure 6 overhead-vs-n sweep")
		table2  = fs.Bool("table2", false, "print the Table 2 query latencies")
		bounds  = fs.Bool("bounds", false, "print the Sect. 5.4 space-bound ablation")
		full    = fs.Bool("full", false, "use the paper's full-scale parameters")
		n       = fs.Int("n", 0, "override the number of annotations")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	all := !(*table1 || *figure6 || *table2 || *bounds)

	if all || *table1 {
		cfg := bench.DefaultTable1()
		if *full {
			cfg = bench.FullTable1()
		}
		if *n > 0 {
			cfg.N = *n
		}
		res, err := bench.RunTable1(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, res.Render())
	}
	if all || *figure6 {
		cfg := bench.DefaultFigure6()
		if *full {
			cfg = bench.FullFigure6()
		}
		if *n > 0 {
			ns := cfg.Ns[:0:0]
			for _, v := range cfg.Ns {
				if v < *n {
					ns = append(ns, v)
				}
			}
			cfg.Ns = append(ns, *n)
		}
		res, err := bench.RunFigure6(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, res.Render())
	}
	if all || *table2 {
		cfg := bench.DefaultTable2()
		if *full {
			cfg = bench.FullTable2()
		}
		if *n > 0 {
			cfg.N = *n
		}
		res, err := bench.RunTable2(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, res.Render())
	}
	if all || *bounds {
		nb := 1000
		if *n > 0 {
			nb = *n
		}
		rows, err := bench.RunSpaceBounds(nb, 10, 4)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, bench.RenderSpaceBounds(rows))
	}
	return nil
}
