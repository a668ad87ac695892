// Command tracedump records a persistent-queue run as a memory trace
// and inspects it: per-kind event counts, the paper's insert-distance
// tracing validation (§7), optional binary trace output, and an event
// dump.
//
// Usage:
//
//	tracedump [-design cwl|2lc] [-policy ...] [-threads N] [-inserts N]
//	          [-seed S] [-o trace.bin] [-dump N] [-replay trace.bin]
//	          [-dot graph.dot] [-dot-model epoch]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	var (
		designStr = flag.String("design", "cwl", "cwl or 2lc")
		policyStr = flag.String("policy", "epoch", "strict|epoch|racing|strand")
		threads   = flag.Int("threads", 4, "simulated threads")
		inserts   = flag.Int("inserts", 1000, "total inserts")
		seed      = flag.Int64("seed", 1, "interleaving seed")
		out       = flag.String("o", "", "write the binary trace to this file")
		dump      = flag.Int("dump", 0, "print the first N events")
		replay    = flag.String("replay", "", "read a binary trace instead of running a workload")
		dot       = flag.String("dot", "", "write the persist constraint graph (Graphviz) to this file")
		dotModel  = flag.String("dot-model", "epoch", "persistency model for -dot")
	)
	flag.Parse()

	man := telemetry.NewManifest("tracedump").
		CaptureFlags(flag.CommandLine).
		Seed("seed", *seed).
		ModelGrid(core.Models...)
	fmt.Fprintln(os.Stderr, man.String())

	var tr *trace.Trace
	if *replay != "" {
		f, err := os.Open(*replay)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		tr, err = trace.ReadAll(f)
		if err != nil {
			fatal(err)
		}
	} else {
		policy, err := workload.ParsePolicy(*policyStr)
		if err != nil {
			fatal(err)
		}
		design, err := workload.ParseDesign(*designStr)
		if err != nil {
			fatal(err)
		}
		tr, err = bench.Trace(bench.Workload{
			Design: design, Policy: policy, Threads: *threads,
			Inserts: *inserts, PayloadLen: 100, Seed: *seed,
		})
		if err != nil {
			fatal(err)
		}
	}

	fmt.Println("== trace summary ==")
	fmt.Print(trace.Summarize(tr).String())

	// The paper's §7 performance validation: distribution of insert
	// distance (global completions between a thread's successive
	// inserts) — used to argue tracing does not perturb interleaving.
	distances := trace.WorkDistances(tr)
	if len(distances) > 0 {
		fmt.Println("\n== insert distance distribution (§7 validation) ==")
		h := stats.NewHistogram(1, 2, 4, 8, 16, 32, 64)
		h.AddAll(distances)
		fmt.Print(h.String())
		sum := stats.Summarize(stats.IntsToFloats(distances))
		fmt.Printf("mean %.2f  p50 %.0f  p90 %.0f  max %.0f\n", sum.Mean, sum.P50, sum.P90, sum.Max)
	}

	fmt.Println("\n== persist critical path per model ==")
	tbl := stats.NewTable("model", "critical-path", "placed", "coalesced")
	rs, err := core.SimulateAll(tr, core.Params{})
	if err != nil {
		fatal(err)
	}
	for _, r := range rs {
		tbl.AddRow(r.Model.String(), fmt.Sprint(r.CriticalPath), fmt.Sprint(r.Placed), fmt.Sprint(r.Coalesced))
	}
	fmt.Print(tbl.String())

	if *dump > 0 {
		fmt.Printf("\n== first %d events ==\n", *dump)
		n := min(*dump, tr.Len())
		for i := 0; i < n; i++ {
			fmt.Println(tr.At(i).String())
		}
	}

	if *dot != "" {
		model, err := workload.ParseModel(*dotModel)
		if err != nil {
			fatal(err)
		}
		g, err := graph.Build(tr, core.Params{Model: model})
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*dot, []byte(g.DOT("persists")), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("\nwrote %d-node constraint graph (%v) to %s\n", g.Len(), model, *dot)
		fmt.Printf("frontier: %d ranges live, %d peak, %d splits, %d coalesces\n",
			g.Stats.FrontierRanges, g.Stats.PeakRanges, g.Stats.Splits, g.Stats.Coalesces)
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		if err := trace.WriteAll(f, tr); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("\nwrote %d events to %s\n", tr.Len(), *out)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracedump:", err)
	os.Exit(1)
}
