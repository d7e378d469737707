// Command perfbench is the repository's end-to-end benchmark. It runs
// one open-loop workload against a real store.Server (shipped default
// options) served over loopback TCP, with the clients in the same
// process speaking only the recommended client path: a compact summary
// hello (netsync.PeerConn.SendHello), columnar uploads (SendRaw), Recv,
// and egwalker.Doc.
//
//	bash perfbench/run.sh --workload live-pair --seed 1 --seconds 20 --trace 0
//
// Workloads: live-pair (two editors typing into one document),
// doc-sessions (short sessions over a population of documents larger
// than the server's caches) and offline-merge (a long offline branch
// uploaded through the server and merged). Every run checks
// convergence; a failed check, or no measurement window whose offered
// load was within 5% of target, fails the run (non-zero exit).
//
// The last line of output is a JSON object. With --trace 0 it carries
// the end-to-end metrics (setup_s, latency_p50_ms, heap_inuse_mb); with
// --trace 1 the run is split into an untraced and a traced half, and it
// carries the per-layer metrics, the latency tail, CPU per operation
// and the tracing overhead. The lines before it, and a JSON report under
// --workdir, give every window and the host and provenance block; a
// traced run also writes its spans there.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "live-pair | doc-sessions | offline-merge")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed: the same seed generates the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds (a traced run splits them between its two halves)")
	flag.IntVar(&traceFlag, "trace", 0, "1: report per-layer metrics from a traced run")
	flag.BoolVar(&cfg.tiny, "tiny", false, "tiny inputs, for self-tests")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build", "directory for data, reports and spans")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if _, ok := workloads[cfg.workload]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", cfg.workload)
		os.Exit(2)
	}
	if cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		os.Exit(2)
	}
	// The workloads are sized for two cores; more would measure a
	// different machine.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	res, err := execute(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
