// Command pipbench regenerates the paper's evaluation figures (§VI) and
// measures the parallel world-evaluation engine:
//
//	pipbench -experiment fig5|fig6|fig7a|fig7b|fig8|speedup|all [-quick]
//	         [-seed N] [-samples N] [-trials N] [-workers N]
//
// Each figure experiment prints the same series the corresponding figure
// plots. The speedup experiment runs the iceberg and TPC-H workloads once
// sequentially (workers=1) and once on the worker pool (-workers, default
// one per CPU), reporting wall-clock speedup and verifying that both runs
// return bit-identical values.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"pip/internal/bench"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "fig5, fig6, fig7a, fig7b, fig8, speedup or all")
		quick      = flag.Bool("quick", false, "use the fast, small-scale configuration")
		seed       = flag.Uint64("seed", 0, "override the world seed (0 = default)")
		samples    = flag.Int("samples", 0, "override the PIP sample budget (0 = default 1000)")
		trials     = flag.Int("trials", 0, "override the RMS trial count (0 = default 30)")
		workers    = flag.Int("workers", 0, "worker pool size for the speedup experiment (0 = one per CPU)")
	)
	flag.Parse()

	opt := bench.DefaultOptions()
	if *quick {
		opt = bench.QuickOptions()
	}
	if *seed != 0 {
		opt.Seed = *seed
	}
	if *samples > 0 {
		opt.Samples = *samples
	}
	if *trials > 0 {
		opt.Trials = *trials
	}

	run := func(name string, f func() error) {
		if *experiment != "all" && *experiment != name {
			return
		}
		fmt.Printf("=== %s ===\n", name)
		t0 := time.Now()
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "pipbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("(%s in %s)\n\n", name, time.Since(t0).Round(time.Millisecond))
	}

	run("fig5", func() error {
		rows, err := bench.Fig5(opt)
		if err != nil {
			return err
		}
		bench.WriteFig5(os.Stdout, rows)
		return nil
	})
	run("fig6", func() error {
		rows, err := bench.Fig6(opt)
		if err != nil {
			return err
		}
		bench.WriteFig6(os.Stdout, rows)
		return nil
	})
	run("fig7a", func() error {
		rows, err := bench.Fig7a(opt)
		if err != nil {
			return err
		}
		bench.WriteFig7(os.Stdout, "(a) group-by query, selectivity 0.005", rows)
		return nil
	})
	run("fig7b", func() error {
		rows, err := bench.Fig7b(opt)
		if err != nil {
			return err
		}
		bench.WriteFig7(os.Stdout, "(b) two-variable comparison, selectivity 0.05", rows)
		return nil
	})
	run("fig8", func() error {
		res, err := bench.Fig8(opt)
		if err != nil {
			return err
		}
		bench.WriteFig8(os.Stdout, res)
		return nil
	})

	run("speedup", func() error {
		rows, err := bench.Speedup(opt, *workers)
		if err != nil {
			return err
		}
		bench.WriteSpeedup(os.Stdout, rows)
		return nil
	})

	switch *experiment {
	case "all", "fig5", "fig6", "fig7a", "fig7b", "fig8", "speedup":
	default:
		fmt.Fprintf(os.Stderr, "pipbench: unknown experiment %q\n", *experiment)
		os.Exit(2)
	}
}
