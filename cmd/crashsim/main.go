// Command crashsim exercises the recovery observer (§4): it traces a
// persistent-structure run, samples crash states (consistent cuts of
// the persist-order DAG) under a persistency model, runs recovery on
// each, and reports the outcome.
//
// Usage:
//
//	crashsim [-workload queue|journal|pstm] [-design cwl|2lc]
//	         [-policy strict|epoch|racing|strand]
//	         [-model strict|epoch|epoch-tso|strand] [-threads N]
//	         [-inserts N] [-samples N] [-seed S]
//	         [-break-barrier] [-omit-completion-barrier]
//	         [-break-commit] [-omit-strand-recipe]
//	         [-integrity]
//	         [-campaign] [-scenarios N] [-faults N] [-parallel N]
//	         [-fail-on-silent] [-replay REPRO]
//
// With -break-barrier the data→head barrier is dropped, and the
// observer demonstrates the resulting corruption — the ordering
// constraint made executable. The journal workload uses a small ring
// so checkpoint truncations occur; try it with -policy racing to see
// the per-algorithm unsafety discussed in EXPERIMENTS.md.
//
// The static persistency checkers run through cmd/persistcheck, which
// takes the same workload flags; -replay accepts the repro lines its
// hazards and counterexamples carry.
//
// With -campaign the sampled crash states are additionally perturbed
// by injected device faults (torn/dropped persists, transient write
// failures, media bit errors) and recovery runs in salvage mode, which
// must mask, salvage, or detect every fault. A failing campaign prints
// a minimized one-line repro; -replay takes that line and reproduces
// the failure deterministically.
//
// With -integrity the structure is built with the corruption-detecting
// durable format (internal/durable): CRC-framed records, dual-copy
// pointer words behind corruption-detecting booleans, and shadow
// checksums. Campaigns then classify silent bit errors the checksums
// catch as detected-and-recovered instead of silently missed — the
// summary's detected-vs-silent column shows the difference.
// -fail-on-silent turns that column into a gate: exit status 2 if any
// silent flip corrupted state undetected (CI runs it with -integrity).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/nvram"
	"repro/internal/observer"
	"repro/internal/sweep"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

func main() {
	var (
		wl         = flag.String("workload", "queue", "queue, journal, or pstm")
		designStr  = flag.String("design", "cwl", "cwl or 2lc (queue only)")
		policyStr  = flag.String("policy", "epoch", "strict|epoch|racing|strand")
		modelStr   = flag.String("model", "", "persistency model (default: the policy's target model)")
		threads    = flag.Int("threads", 2, "simulated threads")
		inserts    = flag.Int("inserts", 16, "total inserts/transactions")
		samples    = flag.Int("samples", 500, "crash states to sample")
		seed       = flag.Int64("seed", 1, "interleaving + sampling seed")
		breakBar   = flag.Bool("break-barrier", false, "drop the data→head barrier (negative test)")
		omitComp   = flag.Bool("omit-completion-barrier", false, "drop 2LC's completion barrier (negative test)")
		breakCmt   = flag.Bool("break-commit", false, "drop the journal's records→commit barrier (negative test)")
		omitRcp    = flag.Bool("omit-strand-recipe", false, "drop the journal's §5.3 strand recipe (negative test)")
		integrity  = flag.Bool("integrity", false, "build with the corruption-detecting durable format (CRC frames, durable words, shadows)")
		payloadLen = flag.Int("payload", 64, "payload bytes (queue only)")
		campaign   = flag.Bool("campaign", false, "run a fault-injection campaign (salvage recovery)")
		failSilent = flag.Bool("fail-on-silent", false, "campaign: exit 2 if any silent bit flip corrupted state undetected (the bar -integrity is expected to meet)")
		scenarios  = flag.Int("scenarios", 1000, "campaign scenarios (cut × fault plan)")
		faults     = flag.Int("faults", 3, "max injected faults per scenario")
		replayStr  = flag.String("replay", "", "repro string from a failed campaign; replays it and exits")
		parallel   = flag.Int("parallel", 0, "cut/scenario evaluation workers; 0 means GOMAXPROCS, 1 forces sequential")
		traceCache = flag.Int("trace-cache", bench.DefaultCacheEntries, "workload trace cache capacity in traces; 0 disables (re-execute every workload)")
		metricsOut = flag.String("metrics-out", "", "write a metrics snapshot to this file (.prom/.txt: Prometheus text, else JSON)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file")
		spansOut   = flag.String("spans-out", "", "write the harness wall-clock span trace (Chrome trace-event JSON) to this file")
	)
	flag.Parse()

	man := telemetry.NewManifest("crashsim").
		CaptureFlags(flag.CommandLine).
		Seed("seed", *seed)
	fmt.Fprintln(os.Stderr, man.String())

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
	defer func() {
		if *memProfile == "" {
			return
		}
		f, err := os.Create(*memProfile)
		if err != nil {
			fatal(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
		f.Close()
	}()

	if *replayStr != "" {
		os.Exit(replay(*replayStr))
	}

	design, err := workload.ParseDesign(*designStr)
	if err != nil {
		fatal(err)
	}
	policy, err := workload.ParsePolicy(*policyStr)
	if err != nil {
		fatal(err)
	}
	model := workload.ModelForPolicy(*wl, policy)
	if *modelStr != "" {
		model, err = workload.ParseModel(*modelStr)
		if err != nil {
			fatal(err)
		}
	}

	opts := workload.Options{
		Workload: *wl, Design: design, Policy: policy, Model: model,
		Threads: *threads, Inserts: *inserts, Payload: *payloadLen, Seed: *seed,
		BreakBar: *breakBar, OmitComp: *omitComp,
		BreakCommit: *breakCmt, OmitRecipe: *omitRcp,
		Integrity: *integrity,
		DesignStr: *designStr, PolicyStr: *policyStr,
	}
	man.ModelGrid(model)
	var spans *telemetry.SpanTracer
	var cache *bench.TraceCache
	if *traceCache > 0 {
		cache = bench.NewTraceCache(*traceCache)
	}
	run, err := workload.Build(opts, cache)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("workload : %s\n", run.Describe)
	fmt.Printf("model    : %v\n", model)
	if cache != nil {
		s := cache.Stats()
		fmt.Fprintf(os.Stderr, "trace cache: %d hits, %d misses, %.1f%% of %d events replayed\n",
			s.Hits, s.Misses, 100*s.ReplayRate(), s.EventsReplayed+s.EventsGenerated)
	}

	if *campaign {
		reg := telemetry.NewRegistry()
		if *spansOut != "" {
			spans = telemetry.NewSpanTracer(reg)
		}
		wlabel := run.Describe
		tty := stderrIsTTY()
		stop := reg.Timer(telemetry.Label("crashsim_campaign", "workload", wlabel)).Time()
		out, err := observer.Campaign(run.Trace, core.Params{Model: model}, run.Checked, observer.CampaignConfig{
			Scenarios: *scenarios,
			Seed:      *seed,
			Gen:       fault.GenConfig{MaxFaults: *faults},
			Params:    opts.Params(),
			Device:    campaignDevice(),
			Sweep:     sweep.Config{Parallel: *parallel, Registry: reg, Spans: spans},
			Spans:     spans,
			// Live progress: update the registry's campaign gauges and
			// print a running counter to stderr. On a terminal the
			// counter rewrites itself in place; redirected to a file or
			// CI log it degrades to a periodic newline line so the log
			// stays readable instead of one \r-glued mega-line.
			Progress: func(o observer.CampaignOutcome) {
				observer.ObserveCampaign(reg, wlabel, o)
				done := o.Scenarios == *scenarios
				switch {
				case tty:
					fmt.Fprintf(os.Stderr, "\rcampaign: %d/%d scenarios (%d masked, %d salvaged, %d corrupt)",
						o.Scenarios, *scenarios, o.Masked, o.Salvaged, o.AnnotationCorrupt+o.SilentCorrupt)
					if done {
						fmt.Fprintln(os.Stderr)
					}
				case o.Scenarios%500 == 0 || done:
					fmt.Fprintf(os.Stderr, "campaign: %d/%d scenarios (%d masked, %d salvaged, %d corrupt)\n",
						o.Scenarios, *scenarios, o.Masked, o.Salvaged, o.AnnotationCorrupt+o.SilentCorrupt)
				}
			},
		})
		if err != nil {
			fatal(err)
		}
		stop()
		observer.ObserveCampaign(reg, wlabel, out)
		cache.Observe(reg)
		writeSpans(*spansOut, man, spans)
		if *metricsOut != "" {
			if merr := telemetry.WriteMetrics(reg, man, *metricsOut); merr != nil {
				fatal(merr)
			}
		}
		fmt.Printf("campaign : %s\n", out)
		if out.SilentBitSeen > 0 {
			harmless := out.SilentBitSeen - out.SilentBitCaught - out.SilentBitMissed
			fmt.Printf("silent-bit detection: %d scenarios injected silent flips: %d caught by checksums, %d harmless, %d corrupted state undetected (the documented exception)\n",
				out.SilentBitSeen, out.SilentBitCaught, harmless, out.SilentBitMissed)
			fmt.Printf("detected/silent: %d detected (%d recovered in full; crc %d, cdb %d), %d silent\n",
				out.SilentBitCaught, out.DetectedRecovered, out.CRCDetected, out.CDBDetected, out.SilentBitMissed)
		}
		printCampaignJSON(out, man)
		if *failSilent && out.SilentBitMissed > 0 {
			fmt.Printf("verdict  : %d silent bit flip(s) corrupted state undetected\n", out.SilentBitMissed)
			os.Exit(2)
		}
		if out.Clean() {
			fmt.Println("verdict  : every injected fault was masked, salvaged, or detected")
			return
		}
		fmt.Printf("verdict  : %v\n", out.FirstFailureClass)
		fmt.Printf("error    : %v\n", out.FirstError)
		fmt.Printf("repro    : %s\n", out.FirstFailure.Repro())
		os.Exit(2)
	}

	if *spansOut != "" {
		spans = telemetry.NewSpanTracer(nil)
	}
	out, err := observer.CrashTest(run.Trace, core.Params{Model: model}, run.Recover, observer.Config{Samples: *samples, Seed: *seed, Sweep: sweep.Config{Parallel: *parallel, Spans: spans}})
	if err != nil {
		fatal(err)
	}
	writeSpans(*spansOut, man, spans)
	fmt.Printf("observer : %s\n", out)
	if out.AllRecovered() {
		fmt.Println("verdict  : every sampled crash state recovered correctly")
	} else {
		fmt.Println("verdict  : RECOVERY CORRECTNESS VIOLATED — the dropped/missing constraint is load-bearing")
		os.Exit(2)
	}
}

// printCampaignJSON emits the machine-readable one-line campaign
// summary (the last stdout line before the verdict), so scripts can
// consume outcomes without parsing the human-oriented text.
func printCampaignJSON(out observer.CampaignOutcome, man *telemetry.Manifest) {
	b, err := json.Marshal(map[string]any{
		"manifest":           man,
		"model":              out.Model.String(),
		"persists":           out.Persists,
		"scenarios":          out.Scenarios,
		"masked":             out.Masked,
		"salvaged":           out.Salvaged,
		"detected_recovered": out.DetectedRecovered,
		"silent_bit_missed":  out.SilentBitMissed,
		"annotation_corrupt": out.AnnotationCorrupt,
		"silent_corrupt":     out.SilentCorrupt,
		"silent_bit_seen":    out.SilentBitSeen,
		"silent_bit_caught":  out.SilentBitCaught,
		"crc_detected":       out.CRCDetected,
		"cdb_detected":       out.CDBDetected,
		"discarded_records":  out.DiscardedRecords,
		"retries":            out.Retries,
		"failed_persists":    out.FailedPersists,
		"clean":              out.Clean(),
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s\n", b)
}

// stderrIsTTY reports whether stderr is an interactive terminal, i.e.
// whether in-place \r progress rewriting renders sanely.
func stderrIsTTY() bool {
	fi, err := os.Stderr.Stat()
	return err == nil && fi.Mode()&os.ModeCharDevice != 0
}

// writeSpans exports the wall-clock span trace; an empty path is a
// no-op.
func writeSpans(path string, man *telemetry.Manifest, spans *telemetry.SpanTracer) {
	if path == "" {
		return
	}
	if err := telemetry.WriteSpans(path, man, spans); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "crashsim: wrote %d wall-clock spans to %s\n", spans.Len(), path)
}

// campaignDevice is the timing model campaigns charge transient write
// failures against.
func campaignDevice() nvram.Config {
	return nvram.Config{Latency: 100 * time.Nanosecond, RetryBackoff: 50 * time.Nanosecond}
}

// replay parses a repro string, rebuilds the recorded workload (the
// queue/journal/pstm grid, or the sharded KV store for workload=kv
// lines such as persistcheck -workload kv counterexamples), and re-runs
// the recorded scenario. Exit status 2 means the corruption reproduced.
func replay(line string) int {
	s, err := fault.ParseRepro(line)
	if err != nil {
		fatal(err)
	}
	run, model, err := replayTarget(s)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("workload : %s\n", run.Describe)
	fmt.Printf("scenario : cut %d nodes, plan [%s]\n", s.Cut.Size(), s.Plan.String())
	class, rerr := observer.Replay(run.Trace, core.Params{Model: model}, run.Checked, s, campaignDevice())
	if rerr != nil && class == observer.Masked {
		// classify never produces Masked with an error; this is an
		// infrastructure failure (graph build or cut/workload mismatch).
		fatal(rerr)
	}
	fmt.Printf("class    : %v\n", class)
	if class.Failure() {
		fmt.Printf("verdict  : corruption reproduced (%v)\n", rerr)
		return 2
	}
	fmt.Println("verdict  : scenario handled (masked/salvaged/detected)")
	return 0
}

// replayTarget rebuilds the workload a repro scenario records and
// resolves the model its cut was taken under.
func replayTarget(s *fault.Scenario) (*workload.Run, core.Model, error) {
	if wl, _ := s.Param("workload"); wl != "kv" {
		opts, err := workload.FromScenario(s)
		if err != nil {
			return nil, 0, err
		}
		run, err := workload.Build(opts, nil)
		return run, opts.Model, err
	}
	opts, err := workload.KVFromScenario(s)
	if err != nil {
		return nil, 0, err
	}
	pol, err := workload.ParsePolicy(opts.PolicyStr)
	if err != nil {
		return nil, 0, err
	}
	// KVOptions carry no model: a model= param names the one the
	// finding was checked under; lines without one use the target.
	model := workload.ModelForPolicy("kv", pol)
	if m, ok := s.Param("model"); ok {
		if model, err = workload.ParseModel(m); err != nil {
			return nil, 0, err
		}
	}
	run, err := workload.BuildKV(opts, nil)
	return run, model, err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "crashsim:", err)
	os.Exit(1)
}
