// Command crashsim exercises the recovery observer (§4): it traces a
// persistent-structure run, samples crash states (consistent cuts of
// the persist-order DAG) under a persistency model, runs recovery on
// each, and reports the outcome.
//
// Usage:
//
//	crashsim [workload flags] [-samples N]
//	         [-campaign] [-scenarios N] [-faults N] [-parallel N]
//	         [-fail-on-silent] [-replay REPRO]
//
// The workload flags (-workload queue|journal|pstm|kv, -design, -policy,
// -model, -threads, -inserts, -payload, -seed, the negative-test
// switches and -integrity) are internal/workload's common set, shared
// with cmd/persistcheck; -seed also seeds the crash sampling.
//
// With -break-barrier the data→head barrier is dropped, and the
// observer demonstrates the resulting corruption — the ordering
// constraint made executable. The journal workload uses a small ring
// so checkpoint truncations occur; try it with -policy racing to see
// the per-algorithm unsafety discussed in EXPERIMENTS.md.
//
// The static persistency checkers run through cmd/persistcheck; -replay
// accepts the repro lines its hazards and counterexamples carry. A line
// without a model= parameter replays under the policy's target model.
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
	"repro/internal/graph"
	"repro/internal/nvram"
	"repro/internal/observer"
	"repro/internal/sweep"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

func main() { cli.Main("crashsim", run) }

func run(env *cli.Env) (int, error) {
	fs := env.Flags
	workloadOpts := workload.Flags(fs, workload.CommonFlags...)
	var (
		samples    = fs.Int("samples", 500, "crash states to sample")
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
	// A replay rebuilds its workload from the repro line; the workload
	// flags only reach the manifest.
	opts, err := workloadOpts()
	man := env.Manifest.Seed("seed", opts.Seed)
	if *replayStr != "" {
		return replay(*replayStr)
	}
	if err != nil {
		return 0, err
	}
	man.ModelGrid(opts.Model)
	// One workload per process: a trace cache could never hit.
	w, err := workload.Build(opts, nil)
	if err != nil {
		return 0, err
	}
	fmt.Printf("workload : %s\n", w.Describe)
	fmt.Printf("model    : %v\n", opts.Model)

	reg, spans := env.Registry, env.Spans
	if *campaign {
		wlabel := w.Describe
		tty := stderrIsTTY()
		stop := reg.Timer(telemetry.Label("crashsim_campaign", "workload", wlabel)).Time()
		sp := spans.Start("campaign", "graph-build").Arg("model", opts.Model.String())
		g, err := graph.Build(w.Trace, core.Params{Model: opts.Model})
		sp.End()
		if err != nil {
			return 0, err
		}
		out, err := observer.Campaign(g, w.Checked, observer.CampaignConfig{
			Scenarios: *scenarios,
			Seed:      opts.Seed,
			Gen:       fault.GenConfig{MaxFaults: *faults},
			Params:    opts.Params(),
			Device:    campaignDevice(),
			Sweep:     sweep.Config{Parallel: *parallel, Registry: reg, Spans: spans},
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

	g, err := graph.Build(w.Trace, core.Params{Model: opts.Model})
	if err != nil {
		return 0, err
	}
	out, err := observer.CrashTest(g, observer.Sampled{Samples: *samples, Seed: opts.Seed}, w.Recover, sweep.Config{Parallel: *parallel, Spans: spans})
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

// replay parses a repro string, rebuilds the recorded workload under
// the model its cut was taken in, and re-runs the recorded scenario.
// Exit status 2 means the corruption reproduced.
func replay(line string) (int, error) {
	s, err := fault.ParseRepro(line)
	if err != nil {
		return 0, err
	}
	opts, err := workload.FromScenario(s)
	if err != nil {
		return 0, err
	}
	run, err := workload.Build(opts, nil)
	if err != nil {
		return 0, err
	}
	fmt.Printf("workload : %s\n", run.Describe)
	fmt.Printf("scenario : cut %d nodes, plan [%s]\n", s.Cut.Size(), s.Plan.String())
	g, err := graph.Build(run.Trace, core.Params{Model: opts.Model})
	if err != nil {
		return 0, err
	}
	class, rerr := observer.Replay(g, run.Checked, s, campaignDevice())
	if rerr != nil && class == observer.Masked {
		// classify never produces Masked with an error; this is an
		// infrastructure failure (a cut/workload mismatch).
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
