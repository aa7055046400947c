// Command selbench regenerates the paper's tables and figures.
//
// Usage:
//
//	selbench -exp fig11              # one experiment, default preset
//	selbench -exp table1 -preset full
//	selbench -all -preset quick      # every registered experiment
//	selbench -list                   # show experiment ids
//
// Output is plain-text tables, one per figure/table, in the format recorded
// in EXPERIMENTS.md.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/experiments"
	"repro/internal/parallel"
)

func main() {
	var (
		exp     = flag.String("exp", "", "experiment id (see -list)")
		preset  = flag.String("preset", "default", "preset: quick, default, full")
		all     = flag.Bool("all", false, "run every registered experiment")
		list    = flag.Bool("list", false, "list experiment ids and exit")
		seed    = flag.Uint64("seed", 0, "override the preset's base seed")
		out     = flag.String("o", "", "write output to this file instead of stdout")
		workers = flag.Int("workers", 0, "concurrent sweep points and kernel workers (0 = all CPUs); results are identical for any value")
	)
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}
	cfg, err := experiments.Preset(*preset)
	if err != nil {
		fatal(err)
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *workers != 0 {
		cfg.Workers = *workers
		parallel.SetDefault(*workers)
	}

	ids := []string{*exp}
	if *all {
		ids = experiments.IDs()
	} else if *exp == "" {
		fmt.Fprintln(os.Stderr, "selbench: need -exp <id>, -all, or -list")
		flag.Usage()
		os.Exit(2)
	}

	w := io.Writer(os.Stdout)
	var outFile *os.File
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		outFile = f
		w = f
	}
	for _, id := range ids {
		start := time.Now()
		results, err := experiments.Run(id, cfg)
		if err != nil {
			fatal(err)
		}
		for _, r := range results {
			if err := r.Render(w); err != nil {
				fatal(err)
			}
		}
		if _, err := fmt.Fprintf(w, "(%s completed in %.1fs, preset %s)\n\n", id, time.Since(start).Seconds(), *preset); err != nil {
			fatal(err)
		}
	}
	if outFile != nil {
		if err := outFile.Close(); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "selbench:", err)
	os.Exit(1)
}
