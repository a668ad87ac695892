// Command pqbench regenerates the paper's evaluation artifacts from the
// persistent-queue workloads: Table 1 and Figures 2–5, plus this
// reproduction's device and unbuffered-strict ablations.
//
// Usage:
//
//	pqbench -experiment table1|fig2|fig3|fig4|fig5|all \
//	        [-inserts N] [-threads 1,8] [-latency 500ns] [-seed S] [-csv] \
//	        [-parallel N]
//
// plus the reproduction-added ablations: banks, window, wear, journal,
// pstm, dist, races, unbuffered.
//
// Absolute instruction rates come from this host, so the normalized
// values differ from the paper's Xeon numbers; the shapes (who wins,
// by roughly what factor, where the crossovers fall) are the
// reproduction target. See EXPERIMENTS.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/nvram"
	"repro/internal/queue"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/telemetry"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "table1|fig2|fig3|fig4|fig5|banks|window|unbuffered|all")
		inserts    = flag.Int("inserts", 20000, "inserts per configuration")
		threadsStr = flag.String("threads", "1,8", "comma-separated thread counts for table1")
		latency    = flag.Duration("latency", bench.DefaultLatency, "persist latency for table1")
		seed       = flag.Int64("seed", 42, "interleaving seed")
		payload    = flag.Int("payload", 100, "entry payload bytes")
		csv        = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		instrRate  = flag.Float64("instr-rate", 0, "fix the instruction rate (items/s) instead of measuring")
		jsonOut    = flag.Bool("json", false, "emit machine-readable JSON reports (table1/fig2/fig3/fig4/fig5/window)")
		traceOut   = flag.String("trace-out", "", "write a Chrome trace-event JSON persist timeline (Perfetto) to this file")
		traceIns   = flag.Int("trace-inserts", 200, "inserts per configuration in the -trace-out timeline pass")
		metricsOut = flag.String("metrics-out", "", "write a metrics snapshot to this file (.prom/.txt: Prometheus text, else JSON)")
		parallel   = flag.Int("parallel", 0, "sweep worker count; 0 means GOMAXPROCS, 1 forces sequential")
		traceCache = flag.Int("trace-cache", bench.DefaultCacheEntries, "workload trace cache capacity in traces; 0 disables (re-execute every workload)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file")
		blockProf  = flag.String("blockprofile", "", "write a goroutine blocking profile to this file (rate 1)")
		mutexProf  = flag.String("mutexprofile", "", "write a mutex contention profile to this file (fraction 1)")
		spansOut   = flag.String("spans-out", "", "write the harness wall-clock span trace (Chrome trace-event JSON) to this file")
		integrity  = flag.Bool("integrity", false, "use the corruption-detecting durable format in the ablation workloads (framing overhead shows up in persist counts)")
	)
	flag.Parse()

	man := telemetry.NewManifest("pqbench").
		CaptureFlags(flag.CommandLine).
		Seed("seed", *seed).
		ModelGrid(core.Models...)
	fmt.Fprintln(os.Stderr, man.String())

	if *blockProf != "" {
		runtime.SetBlockProfileRate(1)
	}
	if *mutexProf != "" {
		runtime.SetMutexProfileFraction(1)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	reg := telemetry.NewRegistry()
	// The span tracer is allocated only when a trace is requested —
	// spans cost a mutex acquisition per sweep item; the nil tracer
	// costs nothing.
	var spans *telemetry.SpanTracer
	if *spansOut != "" {
		spans = telemetry.NewSpanTracer(reg)
	}
	// Every experiment grid shares one sweep configuration; each sweep
	// labels its own telemetry series via Named.
	sw := sweep.Config{Parallel: *parallel, Registry: reg, Spans: spans}
	// One trace cache spans every experiment, so workloads shared across
	// experiments (e.g. fig4/fig5, banks/races) execute exactly once. A
	// nil cache streams every execution.
	var cache *bench.TraceCache
	if *traceCache > 0 {
		cache = bench.NewTraceCache(*traceCache)
	}
	cache.SetSpans(spans)
	threads, err := parseInts(*threadsStr)
	if err != nil {
		fatal(err)
	}
	run := func(name string, fn func() error) {
		if *experiment != "all" && *experiment != name {
			return
		}
		stop := reg.Timer(telemetry.Label("pqbench_experiment", "experiment", name)).Time()
		if !*jsonOut {
			fmt.Printf("=== %s ===\n", name)
		}
		if err := fn(); err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		stop()
		if !*jsonOut {
			fmt.Println()
		}
	}
	emit := func(t *stats.Table) {
		if *csv {
			fmt.Print(t.CSV())
		} else {
			fmt.Print(t.String())
		}
	}

	run("table1", func() error {
		cfg := bench.Table1Config{
			Inserts: *inserts, PayloadLen: *payload, Threads: threads,
			Latency: *latency, Seed: *seed, InstrRate: *instrRate,
			Sweep: sw, Cache: cache,
		}
		rows, err := bench.Table1(cfg)
		if err != nil {
			return err
		}
		for _, r := range rows {
			telemetry.ObserveResult(reg, fmt.Sprintf("%v/%v/%dT", r.Design, r.Policy, r.Threads), r.Result)
		}
		if *jsonOut {
			return bench.Table1Report(cfg, rows).WithManifest(man).WriteJSON(os.Stdout)
		}
		fmt.Printf("persist-bound insert rate normalized to instruction rate (latency %v)\n", *latency)
		fmt.Println("values >= 1 (marked *) are instruction-rate-bound, as bolded in the paper")
		emit(bench.RenderTable1(rows))
		fmt.Println()
		detail := stats.NewTable("design", "policy", "threads", "instr-rate", "persist-rate", "critical-path", "path/insert", "coalesced")
		for _, r := range rows {
			detail.AddRow(
				r.Design.String(), r.Policy.String(), strconv.Itoa(r.Threads),
				stats.FormatRate(r.InstrRate), stats.FormatRate(r.PersistRate),
				strconv.FormatInt(r.CriticalPath, 10),
				fmt.Sprintf("%.2f", r.Result.PathPerWork()),
				strconv.FormatInt(r.Result.Coalesced, 10),
			)
		}
		emit(detail)
		return nil
	})

	run("fig2", func() error {
		rows, err := bench.Fig2(min(*inserts, 200), *seed, sw, cache)
		if err != nil {
			return err
		}
		if *jsonOut {
			return bench.Fig2Report(rows).WithManifest(man).WriteJSON(os.Stdout)
		}
		fmt.Println("queue persist dependence structure (CWL, 1 thread): constraint edges by class")
		fmt.Println("epoch removes the paper's 'A' constraints (intra-insert serialization);")
		fmt.Println("strand removes 'B' (inter-insert serialization), leaving atomicity edges")
		emit(bench.RenderFig2(rows))
		return nil
	})

	run("fig3", func() error {
		points, err := bench.Fig3(bench.Fig3Config{Inserts: *inserts, PayloadLen: *payload, Seed: *seed, InstrRate: *instrRate, Sweep: sw, Cache: cache})
		if err != nil {
			return err
		}
		if *jsonOut {
			return bench.Fig3Report(points).WithManifest(man).WriteJSON(os.Stdout)
		}
		fmt.Println("achievable rate (million inserts/s) vs persist latency; CWL, 1 thread")
		emit(bench.RenderFig3(points))
		for _, pol := range bench.Fig3Policies {
			fmt.Printf("break-even latency (%s): %v\n", pol, bench.BreakEvenLatency(points, pol))
		}
		return nil
	})

	run("fig4", func() error {
		points, err := bench.Fig4(bench.GranularityConfig{Inserts: min(*inserts, 5000), PayloadLen: *payload, Seed: *seed, Sweep: sw, Cache: cache})
		if err != nil {
			return err
		}
		if *jsonOut {
			return bench.GranReport("fig4", points).WithManifest(man).WriteJSON(os.Stdout)
		}
		fmt.Println("persist critical path per insert vs atomic persist granularity (tracking 8B)")
		emit(bench.RenderGran(points, "atomic"))
		return nil
	})

	run("fig5", func() error {
		points, err := bench.Fig5(bench.GranularityConfig{Inserts: min(*inserts, 5000), PayloadLen: *payload, Seed: *seed, Sweep: sw, Cache: cache})
		if err != nil {
			return err
		}
		if *jsonOut {
			return bench.GranReport("fig5", points).WithManifest(man).WriteJSON(os.Stdout)
		}
		fmt.Println("persist critical path per insert vs dependence tracking granularity (atomic 8B)")
		emit(bench.RenderGran(points, "tracking"))
		return nil
	})

	run("banks", func() error {
		// Device ablation: beyond the paper's infinite-bandwidth
		// assumption, sweep bank counts for the epoch-annotated queue.
		w := bench.Workload{Design: queue.CWL, Policy: queue.PolicyEpoch, Threads: 4, Inserts: min(*inserts, 2000), PayloadLen: *payload, Seed: *seed, Integrity: *integrity}
		tr, err := cache.Trace(w)
		if err != nil {
			return err
		}
		sp := spans.Start("graph", "build").Arg("model", core.Epoch.String())
		g, err := graph.Build(tr, core.Params{Model: core.Epoch})
		if err == nil {
			sp.Arg("frontier-ranges", g.Stats.FrontierRanges).Arg("peak-ranges", g.Stats.PeakRanges)
		}
		sp.End()
		if err != nil {
			return err
		}
		tbl := stats.NewTable("banks", "makespan", "ideal", "device-bound", "wear-max")
		for _, banks := range []int{0, 1, 2, 4, 8, 16, 64} {
			r, err := nvram.Schedule(g, nvram.Config{Latency: *latency, Banks: banks, AtomicGranularity: 64})
			if err != nil {
				return err
			}
			label := strconv.Itoa(banks)
			if banks == 0 {
				label = "inf"
			}
			telemetry.ObserveDevice(reg, "banks="+label, r)
			tbl.AddRow(label, r.Makespan.String(), r.IdealMakespan.String(),
				strconv.FormatBool(r.DeviceBound), strconv.Itoa(r.WearMax))
		}
		fmt.Println("NVRAM device ablation: epoch-annotated CWL, 4 threads, 64B banks")
		emit(tbl)
		return nil
	})

	run("window", func() error {
		points, err := bench.WindowAblation(min(*inserts, 5000), *seed, nil, sw, cache)
		if err != nil {
			return err
		}
		if *jsonOut {
			return bench.WindowReport(points).WithManifest(man).WriteJSON(os.Stdout)
		}
		fmt.Println("coalescing-window ablation: strand-annotated CWL, 1 thread")
		fmt.Println("(a finite persist buffer bounds the otherwise unbounded head coalescing)")
		emit(bench.RenderWindow(points))
		return nil
	})

	run("journal", func() error {
		rows, err := bench.JournalTable(min(*inserts, 5000), threads, *seed, sw, cache)
		if err != nil {
			return err
		}
		fmt.Println("journaled metadata store (2-block transactions): persist concurrency by policy")
		fmt.Println("(racing-epochs omitted: unsafe for this structure — see EXPERIMENTS.md)")
		emit(bench.RenderJournal(rows))
		return nil
	})

	run("dist", func() error {
		// Per-insert critical-path growth distribution: strict pays on
		// every insert; racing/strand pay rarely but in bursts.
		tbl := stats.NewTable("policy", "threads", "mean", "p50", "p90", "p99", "max")
		for _, pol := range queue.Policies {
			for _, th := range threads {
				w := bench.Workload{Design: queue.CWL, Policy: pol, Threads: th, Inserts: min(*inserts, 10000), PayloadLen: *payload, Seed: *seed, Integrity: *integrity}
				r, err := bench.SimulateCached(cache, w, core.Params{Model: bench.ModelFor(pol), TrackWorkPath: true})
				if err != nil {
					return err
				}
				xs := make([]float64, len(r.WorkPathDeltas))
				for i, d := range r.WorkPathDeltas {
					xs[i] = float64(d)
				}
				sum := stats.Summarize(xs)
				tbl.AddRow(pol.String(), strconv.Itoa(th),
					fmt.Sprintf("%.3f", sum.Mean), fmt.Sprintf("%.0f", sum.P50),
					fmt.Sprintf("%.0f", sum.P90), fmt.Sprintf("%.0f", sum.P99),
					fmt.Sprintf("%.0f", sum.Max))
			}
		}
		fmt.Println("critical-path growth per insert (CWL): distribution by policy")
		emit(tbl)
		return nil
	})

	run("races", func() error {
		// Persist-epoch races per policy (§5.2): the non-racing
		// discipline is race-free by construction; racing epochs trade
		// races for concurrency.
		tbl := stats.NewTable("policy", "threads", "persist-epochs", "races")
		for _, pol := range queue.Policies {
			for _, th := range threads {
				w := bench.Workload{Design: queue.CWL, Policy: pol, Threads: th, Inserts: min(*inserts, 2000), PayloadLen: *payload, Seed: *seed, Integrity: *integrity}
				tr, err := cache.Trace(w)
				if err != nil {
					return err
				}
				rep, err := core.DetectEpochRaces(tr, core.RaceConfig{})
				if err != nil {
					return err
				}
				tbl.AddRow(pol.String(), strconv.Itoa(th), strconv.Itoa(rep.Epochs), strconv.Itoa(rep.Total))
			}
		}
		fmt.Println("persist-epoch races detected (CWL workload)")
		emit(tbl)
		return nil
	})

	run("pstm", func() error {
		rows, err := bench.PSTMTable(min(*inserts, 5000), threads, *seed, sw, cache)
		if err != nil {
			return err
		}
		fmt.Println("durable undo-log transactions (paired-word): persist concurrency by policy")
		fmt.Println("(racing-epochs omitted: unsafe for this structure — see EXPERIMENTS.md)")
		emit(bench.RenderPSTM(rows))
		return nil
	})

	run("wear", func() error {
		// Endurance ablation (§2.1): the queue's head pointer is a wear
		// hotspot; Start-Gap leveling spreads it. The log wraps a small
		// buffer so the leveler's gap completes many cycles.
		w := bench.Workload{
			Design: queue.CWL, Policy: queue.PolicyEpoch, Threads: 1,
			Inserts: min(*inserts, 5000), PayloadLen: *payload, Seed: *seed,
			DataBytes: 1 << 16, Overwrite: true, Integrity: *integrity,
		}
		tr, err := cache.Trace(w)
		if err != nil {
			return err
		}
		sp := spans.Start("graph", "build").Arg("model", core.Epoch.String())
		g, err := graph.Build(tr, core.Params{Model: core.Epoch})
		if err == nil {
			sp.Arg("frontier-ranges", g.Stats.FrontierRanges).Arg("peak-ranges", g.Stats.PeakRanges)
		}
		sp.End()
		if err != nil {
			return err
		}
		raw, err := nvram.MeasureWear(g, 64, nil)
		if err != nil {
			return err
		}
		lines := int(w.DataBytes/64) + 64
		tbl := stats.NewTable("leveling", "max-line-writes", "lines-touched", "imbalance", "gap-moves")
		tbl.AddRow("none", strconv.Itoa(raw.MaxLine), strconv.Itoa(raw.LinesTouched), fmt.Sprintf("%.2f", raw.Imbalance()), "0")
		for _, psi := range []int{128, 32, 8} {
			sg, err := nvram.NewStartGap(lines, psi)
			if err != nil {
				return err
			}
			p, err := nvram.MeasureWear(g, 64, sg)
			if err != nil {
				return err
			}
			tbl.AddRow(fmt.Sprintf("start-gap psi=%d", psi),
				strconv.Itoa(p.MaxLine), strconv.Itoa(p.LinesTouched),
				fmt.Sprintf("%.2f", p.Imbalance()), strconv.Itoa(p.GapMoves))
		}
		fmt.Println("NVRAM endurance ablation: epoch-annotated CWL, 1 thread, 64B lines")
		emit(tbl)
		return nil
	})

	run("unbuffered", func() error {
		// Buffered vs unbuffered strict persistency (§4.1): unbuffered
		// stalls execution on every persist.
		instr := *instrRate
		if instr <= 0 {
			var err error
			instr, err = bench.NativeRate(bench.Workload{Design: queue.CWL, Threads: 1, Inserts: *inserts, PayloadLen: *payload})
			if err != nil {
				return err
			}
		}
		w := bench.Workload{Design: queue.CWL, Policy: queue.PolicyStrict, Threads: 1, Inserts: *inserts, PayloadLen: *payload, Seed: *seed, Integrity: *integrity}
		r, err := bench.SimulateCached(cache, w, core.Params{Model: core.Strict})
		if err != nil {
			return err
		}
		tbl := stats.NewTable("variant", "rate", "normalized")
		buffered := r.PersistBoundRate(*latency)
		if buffered > instr {
			buffered = instr
		}
		unbuf := bench.UnbufferedRate(r, instr, *latency)
		tbl.AddRow("instruction rate", stats.FormatRate(instr), "1.00")
		tbl.AddRow("buffered strict", stats.FormatRate(buffered), stats.FormatNorm(buffered/instr))
		tbl.AddRow("unbuffered strict", stats.FormatRate(unbuf), stats.FormatNorm(unbuf/instr))
		fmt.Printf("strict persistency execution models (CWL, 1 thread, latency %v)\n", *latency)
		emit(tbl)
		return nil
	})

	switch *experiment {
	case "all", "table1", "fig2", "fig3", "fig4", "fig5", "banks", "window", "wear", "journal", "pstm", "dist", "races", "unbuffered":
	default:
		fatal(fmt.Errorf("unknown experiment %q", *experiment))
	}

	if *traceOut != "" {
		maxT := 1
		for _, t := range threads {
			if t > maxT {
				maxT = t
			}
		}
		if err := tracePass(reg, man, *traceOut, maxT, *payload, *traceIns, *seed, *integrity); err != nil {
			fatal(err)
		}
	}
	cache.Observe(reg)
	if cache != nil && !*jsonOut {
		s := cache.Stats()
		fmt.Printf("trace cache: %d hits, %d misses, %d evictions, %.1f%% of %d events replayed\n",
			s.Hits, s.Misses, s.Evictions, 100*s.ReplayRate(), s.EventsReplayed+s.EventsGenerated)
	}
	if *spansOut != "" {
		if err := telemetry.WriteSpans(*spansOut, man, spans); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "pqbench: wrote %d wall-clock spans to %s\n", spans.Len(), *spansOut)
	}
	if *metricsOut != "" {
		if err := telemetry.WriteMetrics(reg, man, *metricsOut); err != nil {
			fatal(err)
		}
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fatal(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
		f.Close()
	}
	if *blockProf != "" {
		if err := writeLookupProfile("block", *blockProf); err != nil {
			fatal(err)
		}
	}
	if *mutexProf != "" {
		if err := writeLookupProfile("mutex", *mutexProf); err != nil {
			fatal(err)
		}
	}
}

// writeLookupProfile dumps a named runtime profile (block, mutex) to
// a file in pprof format.
func writeLookupProfile(name, path string) error {
	p := pprof.Lookup(name)
	if p == nil {
		return fmt.Errorf("no %s profile", name)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := p.WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracePass re-runs a small instance of each queue configuration with
// the persist-timeline tracer attached, verifies every tracer against
// its simulation result, prints the critical-path attribution reports,
// and exports one Perfetto-loadable Chrome trace with a process per
// configuration.
func tracePass(reg *telemetry.Registry, man *telemetry.Manifest, path string, threads, payload, inserts int, seed int64, integrity bool) error {
	models := []core.Model{core.Strict, core.Epoch, core.Strand}
	policies := []queue.Policy{queue.PolicyStrict, queue.PolicyEpoch, queue.PolicyStrand}
	var tracers []*telemetry.Tracer
	fmt.Println("=== persist timeline ===")
	for _, d := range []queue.Design{queue.CWL, queue.TwoLock} {
		for i, m := range models {
			w := bench.Workload{
				Design: d, Policy: policies[i],
				Threads: threads, Inserts: inserts, PayloadLen: payload, Seed: seed,
				Integrity: integrity,
			}
			meta, err := bench.QueueMeta(w)
			if err != nil {
				return err
			}
			tr := telemetry.NewTracer(m, w.String())
			tr.SiteLabel = bench.SiteLabel(meta)
			sim, err := core.NewSim(core.Params{Model: m})
			if err != nil {
				return err
			}
			sim.SetProbe(tr)
			// CountingSink feeds the per-thread op-mix series while the
			// simulator consumes the same stream.
			if _, err := bench.Run(w, telemetry.NewCountingSink(reg, sim)); err != nil {
				return err
			}
			if err := sim.Err(); err != nil {
				return err
			}
			r := sim.Result()
			if err := tr.Verify(r); err != nil {
				return fmt.Errorf("%v: %w", w, err)
			}
			telemetry.ObserveResult(reg, w.String(), r)
			tr.ObserveMetrics(reg)
			fmt.Print(tr.Attribute(3).Render())
			fmt.Println()
			tracers = append(tracers, tr)
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := telemetry.EncodeChromeTraceDoc(f, man, nil, tracers...); err != nil {
		return err
	}
	fmt.Printf("wrote persist timeline for %d configurations to %s (load in Perfetto or chrome://tracing)\n", len(tracers), path)
	return nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad thread count %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pqbench:", err)
	os.Exit(1)
}
