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
//
// Exit status: 0 ok, 1 bad flag value or I/O error, 2 usage error.
package main

import (
	"flag"
	"fmt"
	"io"
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
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tracedump", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		designStr = fs.String("design", "cwl", "cwl or 2lc")
		policyStr = fs.String("policy", "epoch", "strict|epoch|racing|strand")
		threads   = fs.Int("threads", 4, "simulated threads")
		inserts   = fs.Int("inserts", 1000, "total inserts")
		seed      = fs.Int64("seed", 1, "interleaving seed")
		out       = fs.String("o", "", "write the binary trace to this file")
		dump      = fs.Int("dump", 0, "print the first N events")
		replay    = fs.String("replay", "", "read a binary trace instead of running a workload")
		dot       = fs.String("dot", "", "write the persist constraint graph (Graphviz) to this file")
		dotModel  = fs.String("dot-model", "epoch", "persistency model for -dot")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "tracedump:", err)
		return 1
	}
	switch {
	case *inserts <= 0:
		return fail(fmt.Errorf("-inserts %d: must be positive", *inserts))
	case *threads < 1:
		return fail(fmt.Errorf("-threads %d: must be positive", *threads))
	}

	man := telemetry.NewManifest("tracedump").
		CaptureFlags(fs).
		Seed("seed", *seed).
		ModelGrid(core.Models...)
	fmt.Fprintln(stderr, man.String())

	var tr *trace.Trace
	if *replay != "" {
		f, err := os.Open(*replay)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		tr, err = trace.ReadAll(f)
		if err != nil {
			return fail(err)
		}
	} else {
		policy, err := workload.ParsePolicy(*policyStr)
		if err != nil {
			return fail(err)
		}
		design, err := workload.ParseDesign(*designStr)
		if err != nil {
			return fail(err)
		}
		tr, err = bench.Trace(bench.Workload{
			Design: design, Policy: policy, Threads: *threads,
			Inserts: *inserts, PayloadLen: 100, Seed: *seed,
		})
		if err != nil {
			return fail(err)
		}
	}

	fmt.Fprintln(stdout, "== trace summary ==")
	fmt.Fprint(stdout, trace.Summarize(tr).String())

	// The paper's §7 performance validation: distribution of insert
	// distance (global completions between a thread's successive
	// inserts) — used to argue tracing does not perturb interleaving.
	distances := trace.WorkDistances(tr)
	if len(distances) > 0 {
		fmt.Fprintln(stdout, "\n== insert distance distribution (§7 validation) ==")
		h := stats.NewHistogram(1, 2, 4, 8, 16, 32, 64)
		h.AddAll(distances)
		fmt.Fprint(stdout, h.String())
		sum := stats.Summarize(stats.IntsToFloats(distances))
		fmt.Fprintf(stdout, "mean %.2f  p50 %.0f  p90 %.0f  max %.0f\n", sum.Mean, sum.P50, sum.P90, sum.Max)
	}

	fmt.Fprintln(stdout, "\n== persist critical path per model ==")
	tbl := stats.NewTable("model", "critical-path", "placed", "coalesced")
	rs, err := core.SimulateAll(tr, core.Params{})
	if err != nil {
		return fail(err)
	}
	for _, r := range rs {
		tbl.AddRow(r.Model.String(), fmt.Sprint(r.CriticalPath), fmt.Sprint(r.Placed), fmt.Sprint(r.Coalesced))
	}
	fmt.Fprint(stdout, tbl.String())

	if *dump > 0 {
		fmt.Fprintf(stdout, "\n== first %d events ==\n", *dump)
		n := min(*dump, tr.Len())
		for i := 0; i < n; i++ {
			fmt.Fprintln(stdout, tr.At(i).String())
		}
	}

	if *dot != "" {
		model, err := workload.ParseModel(*dotModel)
		if err != nil {
			return fail(err)
		}
		g, err := graph.Build(tr, core.Params{Model: model})
		if err != nil {
			return fail(err)
		}
		if err := os.WriteFile(*dot, []byte(g.DOT("persists")), 0o644); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "\nwrote %d-node constraint graph (%v) to %s\n", g.Len(), model, *dot)
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return fail(err)
		}
		if err := trace.WriteAll(f, tr); err != nil {
			f.Close()
			return fail(err)
		}
		if err := f.Close(); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "\nwrote %d events to %s\n", tr.Len(), *out)
	}
	return 0
}
