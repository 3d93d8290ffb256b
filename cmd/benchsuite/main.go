// Command benchsuite runs the experiments of internal/bench: the paper's
// tables and figures, the Section III mapping analysis, the Section V
// future-work experiment, and the benchmark experiments that record
// BENCH_<name>.json.
//
// Usage:
//
//	benchsuite [-exp all|NAME] [-factor N] [-chunk N] [-ranks N] [-executors N] [-out DIR]
//	benchsuite -list
//
// -exp all (the default) runs the paper's experiments. `benchsuite -list`
// prints every experiment with its gates and their bounds. Every gate must
// pass before a benchmark experiment writes DIR/BENCH_<name>.json, so a
// failing run never replaces the committed file; the hotpath allocation
// gate always reads ./BENCH_hotpath.json.
//
// The default factor 1024 scales the paper's GB volumes to MB; the chunk
// scales the per-call I/O unit accordingly (see internal/workloads).
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
	"repro/internal/workloads"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run (see -list), or all for the paper's experiments")
	factor := flag.Int64("factor", 1024, "divide the paper's byte volumes by this factor")
	chunk := flag.Int("chunk", 4096, "per-call I/O unit in bytes")
	ranks := flag.Int("ranks", 8, "MPI ranks for HPC applications")
	executors := flag.Int("executors", 4, "Spark executors")
	out := flag.String("out", ".", "directory that receives BENCH_<name>.json")
	list := flag.Bool("list", false, "list the experiments and their gates, then exit")
	flag.Parse()

	if *list {
		bench.List(os.Stdout)
		return
	}
	cfg := workloads.Config{Factor: *factor, Chunk: *chunk, Ranks: *ranks, Executors: *executors}
	ran := false
	for _, e := range bench.Experiments {
		if *exp != e.Name && (*exp != "all" || !e.Paper) {
			continue
		}
		ran = true
		if err := e.Execute(os.Stdout, cfg, *out); err != nil {
			fmt.Fprintf(os.Stderr, "benchsuite: %s: %v\n", e.Name, err)
			os.Exit(1)
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "benchsuite: unknown experiment %q (see -list)\n", *exp)
		os.Exit(2)
	}
}
