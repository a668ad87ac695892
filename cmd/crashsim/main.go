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
	"fmt"
	"os"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/nvram"
	"repro/internal/observer"
	"repro/internal/sweep"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

func main() { cli.Main("crashsim", run) }

func run(env *cli.Env) (int, error) {
	fs := env.Flags
	var (
		wl         = fs.String("workload", "queue", "queue, journal, or pstm")
		designStr  = fs.String("design", "cwl", "cwl or 2lc (queue only)")
		policyStr  = fs.String("policy", "epoch", "strict|epoch|racing|strand")
		modelStr   = fs.String("model", "", "persistency model (default: the policy's target model)")
		threads    = fs.Int("threads", 2, "simulated threads")
		inserts    = fs.Int("inserts", 16, "total inserts/transactions")
		samples    = fs.Int("samples", 500, "crash states to sample")
		seed       = fs.Int64("seed", 1, "interleaving + sampling seed")
		breakBar   = fs.Bool("break-barrier", false, "drop the data→head barrier (negative test)")
		omitComp   = fs.Bool("omit-completion-barrier", false, "drop 2LC's completion barrier (negative test)")
		breakCmt   = fs.Bool("break-commit", false, "drop the journal's records→commit barrier (negative test)")
		omitRcp    = fs.Bool("omit-strand-recipe", false, "drop the journal's §5.3 strand recipe (negative test)")
		integrity  = fs.Bool("integrity", false, "build with the corruption-detecting durable format (CRC frames, durable words, shadows)")
		payloadLen = fs.Int("payload", 64, "payload bytes (queue only)")
		campaign   = fs.Bool("campaign", false, "run a fault-injection campaign (salvage recovery)")
		failSilent = fs.Bool("fail-on-silent", false, "campaign: exit 2 if any silent bit flip corrupted state undetected (the bar -integrity is expected to meet)")
		scenarios  = fs.Int("scenarios", 1000, "campaign scenarios (cut × fault plan)")
		faults     = fs.Int("faults", 3, "max injected faults per scenario")
		replayStr  = fs.String("replay", "", "repro string from a failed campaign; replays it and exits")
		parallel   = fs.Int("parallel", 0, "cut/scenario evaluation workers; 0 means GOMAXPROCS, 1 forces sequential")
	)
	if err := env.Parse(); err != nil {
		return 0, err
	}
	man := env.Manifest.Seed("seed", *seed)

	if *replayStr != "" {
		return replay(*replayStr)
	}

	design, err := workload.ParseDesign(*designStr)
	if err != nil {
		return 0, err
	}
	policy, err := workload.ParsePolicy(*policyStr)
	if err != nil {
		return 0, err
	}
	model := policy.Model()
	if *modelStr != "" {
		model, err = workload.ParseModel(*modelStr)
		if err != nil {
			return 0, err
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
	// One workload per process: a trace cache could never hit.
	w, err := workload.Build(opts, nil)
	if err != nil {
		return 0, err
	}
	fmt.Printf("workload : %s\n", w.Describe)
	fmt.Printf("model    : %v\n", model)

	reg, spans := env.Registry, env.Spans
	if *campaign {
		wlabel := w.Describe
		tty := stderrIsTTY()
		stop := reg.Timer(telemetry.Label("crashsim_campaign", "workload", wlabel)).Time()
		out, err := observer.Campaign(w.Trace, core.Params{Model: model}, w.Checked, observer.CampaignConfig{
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
			return 0, err
		}
		stop()
		observer.ObserveCampaign(reg, wlabel, out)
		fmt.Printf("campaign : %s\n", out)
		if out.SilentBitSeen > 0 {
			harmless := out.SilentBitSeen - out.SilentBitCaught - out.SilentBitMissed
			fmt.Printf("silent-bit detection: %d scenarios injected silent flips: %d caught by checksums, %d harmless, %d corrupted state undetected (the documented exception)\n",
				out.SilentBitSeen, out.SilentBitCaught, harmless, out.SilentBitMissed)
			fmt.Printf("detected/silent: %d detected (%d recovered in full; crc %d, cdb %d), %d silent\n",
				out.SilentBitCaught, out.DetectedRecovered, out.CRCDetected, out.CDBDetected, out.SilentBitMissed)
		}
		if err := printCampaignJSON(out, man); err != nil {
			return 0, err
		}
		if *failSilent && out.SilentBitMissed > 0 {
			fmt.Printf("verdict  : %d silent bit flip(s) corrupted state undetected\n", out.SilentBitMissed)
			return 2, nil
		}
		if out.Clean() {
			fmt.Println("verdict  : every injected fault was masked, salvaged, or detected")
			return 0, nil
		}
		fmt.Printf("verdict  : %v\n", out.FirstFailureClass)
		fmt.Printf("error    : %v\n", out.FirstError)
		fmt.Printf("repro    : %s\n", out.FirstFailure.Repro())
		return 2, nil
	}

	out, err := observer.CrashTest(w.Trace, core.Params{Model: model}, w.Recover, observer.Config{Samples: *samples, Seed: *seed, Sweep: sweep.Config{Parallel: *parallel, Spans: spans}})
	if err != nil {
		return 0, err
	}
	fmt.Printf("observer : %s\n", out)
	if out.AllRecovered() {
		fmt.Println("verdict  : every sampled crash state recovered correctly")
		return 0, nil
	}
	fmt.Println("verdict  : RECOVERY CORRECTNESS VIOLATED — the dropped/missing constraint is load-bearing")
	return 2, nil
}

// printCampaignJSON emits the machine-readable one-line campaign
// summary (the last stdout line before the verdict), so scripts can
// consume outcomes without parsing the human-oriented text.
func printCampaignJSON(out observer.CampaignOutcome, man *telemetry.Manifest) error {
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
		return err
	}
	fmt.Printf("%s\n", b)
	return nil
}

// stderrIsTTY reports whether stderr is an interactive terminal, i.e.
// whether in-place \r progress rewriting renders sanely.
func stderrIsTTY() bool {
	fi, err := os.Stderr.Stat()
	return err == nil && fi.Mode()&os.ModeCharDevice != 0
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
func replay(line string) (int, error) {
	s, err := fault.ParseRepro(line)
	if err != nil {
		return 0, err
	}
	run, model, err := replayTarget(s)
	if err != nil {
		return 0, err
	}
	fmt.Printf("workload : %s\n", run.Describe)
	fmt.Printf("scenario : cut %d nodes, plan [%s]\n", s.Cut.Size(), s.Plan.String())
	class, rerr := observer.Replay(run.Trace, core.Params{Model: model}, run.Checked, s, campaignDevice())
	if rerr != nil && class == observer.Masked {
		// classify never produces Masked with an error; this is an
		// infrastructure failure (graph build or cut/workload mismatch).
		return 0, rerr
	}
	fmt.Printf("class    : %v\n", class)
	if class.Failure() {
		fmt.Printf("verdict  : corruption reproduced (%v)\n", rerr)
		return 2, nil
	}
	fmt.Println("verdict  : scenario handled (masked/salvaged/detected)")
	return 0, nil
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
	model := pol.Model()
	if m, ok := s.Param("model"); ok {
		if model, err = workload.ParseModel(m); err != nil {
			return nil, 0, err
		}
	}
	run, err := workload.BuildKV(opts, nil)
	return run, model, err
}
