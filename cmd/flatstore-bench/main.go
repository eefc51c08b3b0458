// Command flatstore-bench regenerates every table and figure of the
// FlatStore paper (ASPLOS'20) on the virtual-time simulator described in
// DESIGN.md. Each subcommand prints the rows/series of the corresponding
// figure; `all` runs the full suite (the output EXPERIMENTS.md quotes).
//
// Usage:
//
//	flatstore-bench [flags] <experiment>...
//	experiments: fig1a fig1b fig1c table1 fig7 fig8 fig9 fig10 fig11
//	             fig12 fig13 recovery rpc groupsize offload inline
//	             pipeline cluster all
//
// Absolute numbers depend on the calibrated cost model (see
// internal/sim); the shapes — who wins, by what factor, where curves
// cross — are the reproduction target.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"flatstore/internal/sim"
)

type benchConfig struct {
	cores       int
	clients     int
	cbatch      int
	ops         int
	keys        uint64
	quick       bool
	dist        string
	theta       float64
	shards      int
	clusterJSON string
}

var cfg benchConfig

func main() {
	flag.IntVar(&cfg.cores, "cores", 26, "server cores for the full-load experiments")
	flag.IntVar(&cfg.clients, "clients", 288, "closed-loop client threads (the paper uses 12 nodes × 24)")
	flag.IntVar(&cfg.cbatch, "client-batch", 8, "per-client async request window")
	flag.IntVar(&cfg.ops, "ops", 50_000, "measured requests per configuration point")
	flag.Uint64Var(&cfg.keys, "keys", 192_000_000, "YCSB key-space size")
	flag.BoolVar(&cfg.quick, "quick", false, "shrink sweeps for a fast smoke run")
	flag.StringVar(&cfg.dist, "dist", "uniform", "key popularity for the TCP benches (pipeline, cluster): uniform or zipfian")
	flag.Float64Var(&cfg.theta, "theta", 0.99, "zipfian skew for -dist zipfian (YCSB default 0.99)")
	flag.IntVar(&cfg.shards, "shards", 3, "shard-group count for the cluster experiment's multi-shard point")
	flag.StringVar(&cfg.clusterJSON, "json", "", "write the cluster experiment's aggregate throughput to this JSON file (e.g. BENCH_cluster.json)")
	flag.Parse()

	if cfg.quick {
		cfg.ops = 15_000
	}
	switch cfg.dist {
	case "uniform", "zipfian":
	default:
		fmt.Fprintf(os.Stderr, "flatstore-bench: unknown -dist %q (want uniform or zipfian)\n", cfg.dist)
		os.Exit(2)
	}

	experiments := map[string]func(){
		"fig1a":     fig1a,
		"fig1b":     fig1b,
		"fig1c":     fig1c,
		"table1":    table1,
		"fig7":      fig7,
		"fig8":      fig8,
		"fig9":      fig9,
		"fig10":     fig10,
		"fig11":     fig11,
		"fig12":     fig12,
		"fig13":     fig13,
		"recovery":  recovery,
		"rpc":       rpcBench,
		"groupsize": groupSize,
		"offload":   offload,
		"inline":    inlineAblation,
		"pipeline":  pipelineBench,
		"cluster":   clusterBench,
	}
	order := []string{"fig1a", "fig1b", "fig1c", "table1", "fig7", "fig8", "fig9",
		"fig10", "fig11", "fig12", "fig13", "recovery", "rpc", "groupsize", "offload",
		"inline", "pipeline", "cluster"}

	args := flag.Args()
	if len(args) == 0 {
		fmt.Fprintf(os.Stderr, "usage: flatstore-bench [flags] <%s|all>...\n",
			strings.Join(order, "|"))
		os.Exit(2)
	}
	for _, a := range args {
		if a == "all" {
			for _, name := range order {
				experiments[name]()
			}
			continue
		}
		fn, ok := experiments[a]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", a)
			os.Exit(2)
		}
		fn()
	}
}

// params builds the common simulation parameters.
func params(ops int) sim.Params {
	return sim.Params{
		Cores:       cfg.cores,
		Clients:     cfg.clients,
		ClientBatch: cfg.cbatch,
		Ops:         ops,
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "flatstore-bench:", err)
		os.Exit(1)
	}
}
