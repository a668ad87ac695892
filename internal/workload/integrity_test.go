package workload

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/observer"
	"repro/internal/persistcheck"
	"repro/internal/sweep"
)

// integrityOpt builds the default options for a workload with the
// corruption-detecting format toggled.
func integrityOpt(wl string, integrity bool) Options {
	o := defaults()
	o.Workload, o.Integrity = wl, integrity
	return o
}

// silentCampaign runs a campaign whose every plan is silent bit flips —
// the fault class only software checksums can catch.
func silentCampaign(t *testing.T, o Options, scenarios int, seed int64) observer.CampaignOutcome {
	t.Helper()
	run, err := Build(o, nil)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.Build(run.Trace, core.Params{Model: o.Model})
	if err != nil {
		t.Fatal(err)
	}
	out, err := observer.Campaign(g, run.Checked, observer.CampaignConfig{
		Scenarios: scenarios, Seed: seed,
		Gen: fault.GenConfig{FlipSilentWeight: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestIntegrityCampaignsCatchEverySilentFlip(t *testing.T) {
	// The tentpole bar: with the corruption-detecting format, a campaign
	// of pure silent bit flips reports zero undetected corruption for
	// every shipped structure — each flip is masked, salvaged with the
	// corruption disclosed, or detected and recovered in full.
	for _, wl := range []string{"queue", "journal", "pstm"} {
		t.Run(wl, func(t *testing.T) {
			out := silentCampaign(t, integrityOpt(wl, true), 300, 7)
			if !out.Clean() {
				t.Fatalf("campaign not clean: %s\nfirst: %v (%v)", out, out.FirstFailure, out.FirstError)
			}
			if out.SilentBitMissed != 0 {
				t.Fatalf("%d silent flips corrupted state undetected: %s", out.SilentBitMissed, out)
			}
			if out.SilentBitSeen == 0 {
				t.Fatalf("degenerate campaign, no silent flips injected: %s", out)
			}
			if out.DetectedRecovered == 0 {
				t.Fatalf("no scenario recovered in full with corruption detected: %s", out)
			}
			if out.CRCDetected+out.CDBDetected == 0 {
				t.Fatalf("integrity campaign saw no checksum detections: %s", out)
			}
		})
	}
}

func TestLegacyFormatsMissSilentFlips(t *testing.T) {
	// The negative direction: without the integrity format the same
	// campaigns reach undetected corrupt states — the documented
	// exception the durable formats exist to close. (Campaigns stay
	// Clean(): an undetected silent flip is reported as a detection-rate
	// statistic, not an annotation failure.) The queue is absent here:
	// its entries are CRC-framed in both formats, so random flips almost
	// never land on its two unprotected pointer words — the targeted
	// lint-repro test below covers it.
	for _, wl := range []string{"journal", "pstm"} {
		t.Run(wl, func(t *testing.T) {
			missed := 0
			for seed := int64(1); seed <= 5 && missed == 0; seed++ {
				out := silentCampaign(t, integrityOpt(wl, false), 300, seed)
				if !out.Clean() {
					t.Fatalf("legacy campaign misclassified silent flips: %s", out)
				}
				missed = out.SilentBitMissed
			}
			if missed == 0 {
				t.Fatalf("%s: legacy format caught every silent flip; the integrity layer would be unfalsifiable", wl)
			}
		})
	}
}

func TestUnprotectedLintReprosDemonstrateSilentCorruption(t *testing.T) {
	// Cross-validation of the unprotected-metadata lint, both ways: every
	// legacy structure is flagged, every finding carries a repro line
	// that rebuilds the identical workload and replays, and switching
	// the same workload to the integrity format clears every robustness
	// finding. (The silent *harm* — data loss and wrong data behind a
	// clean report — is demonstrated by the targeted per-structure tests
	// in internal/queue, internal/journal, and internal/pstm: the
	// campaign invariants here tolerate lost suffixes, so a full-cut
	// pointer flip classifies as masked or salvaged, not missed.)
	for _, wl := range []string{"queue", "journal", "pstm"} {
		t.Run(wl, func(t *testing.T) {
			o := integrityOpt(wl, false)
			run, err := Build(o, nil)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := persistcheck.Check(run.Trace, core.Params{Model: o.Model}, run.Checks, persistcheck.Config{
				ReproParams: o.Params(),
				SiteLabel:   run.SiteLabel,
			})
			if err != nil {
				t.Fatal(err)
			}
			if rep.RobustnessFindings() == 0 {
				t.Fatalf("legacy %s has unframed recovery metadata but the lint is silent:\n%s", wl, rep)
			}
			replayed := 0
			for _, f := range rep.Findings {
				if f.Kind != persistcheck.UnprotectedMetadata {
					continue
				}
				if f.Repro == "" {
					t.Fatalf("finding %q has no repro line", f.Msg)
				}
				sc, err := fault.ParseRepro(f.Repro)
				if err != nil {
					t.Fatalf("finding repro %q does not parse: %v", f.Repro, err)
				}
				o2, err := FromScenario(sc)
				if err != nil {
					t.Fatal(err)
				}
				if o2 != o {
					t.Fatalf("repro rebuilds different options:\n got %+v\nwant %+v", o2, o)
				}
				run2, err := Build(o2, nil)
				if err != nil {
					t.Fatal(err)
				}
				g2, err := graph.Build(run2.Trace, core.Params{Model: o2.Model})
				if err != nil {
					t.Fatal(err)
				}
				class, rerr := observer.Replay(g2, run2.Checked, sc, observer.CampaignConfig{}.Device)
				if rerr != nil && class == observer.Masked {
					t.Fatalf("repro %q does not replay against its own workload: %v", f.Repro, rerr)
				}
				replayed++
			}
			if replayed == 0 {
				t.Fatalf("no unprotected-metadata finding carried a repro for legacy %s", wl)
			}

			oi := integrityOpt(wl, true)
			runI, err := Build(oi, nil)
			if err != nil {
				t.Fatal(err)
			}
			repI, err := persistcheck.Check(runI.Trace, core.Params{Model: oi.Model}, runI.Checks, persistcheck.Config{
				ReproParams: oi.Params(),
				SiteLabel:   runI.SiteLabel,
			})
			if err != nil {
				t.Fatal(err)
			}
			if repI.RobustnessFindings() != 0 {
				t.Fatalf("integrity %s still flagged:\n%s", wl, repI)
			}
			if repI.Hazards() != 0 {
				t.Fatalf("integrity %s has ordering hazards:\n%s", wl, repI)
			}
		})
	}
}

func TestIntegrityOptionRoundTrips(t *testing.T) {
	// The integrity toggle must survive repro serialization so a
	// finding's repro line rebuilds the identical (framed) workload.
	o := integrityOpt("pstm", true)
	o2, err := FromScenario(&fault.Scenario{Params: o.Params()})
	if err != nil {
		t.Fatal(err)
	}
	if o2 != o {
		t.Fatalf("round trip:\n got %+v\nwant %+v", o2, o)
	}
}

func TestIntegrityDescribeAndOverhead(t *testing.T) {
	// The framed format must disclose itself in the description and cost
	// extra persists (frames, shadow checksums, dual-copy words) — the
	// overhead the benchmarks surface, never hidden.
	for _, wl := range []string{"queue", "journal", "pstm"} {
		plain, err := Build(integrityOpt(wl, false), nil)
		if err != nil {
			t.Fatal(err)
		}
		framed, err := Build(integrityOpt(wl, true), nil)
		if err != nil {
			t.Fatal(err)
		}
		if framed.Describe == plain.Describe {
			t.Fatalf("%s: integrity build describes itself as the plain one: %q", wl, framed.Describe)
		}
		if framed.Trace.Len() <= plain.Trace.Len() {
			t.Fatalf("%s: integrity trace not larger: %d vs %d events", wl, framed.Trace.Len(), plain.Trace.Len())
		}
	}
}

func TestIntegrityCrashSafeUnderTargetModels(t *testing.T) {
	// The framed structures keep the baseline crash-consistency bar on
	// fault-free cuts under every target model.
	for _, wl := range []string{"queue", "journal", "pstm"} {
		for _, policy := range []string{"strict", "epoch", "strand"} {
			t.Run(fmt.Sprintf("%s/%s", wl, policy), func(t *testing.T) {
				p, err := ParsePolicy(policy)
				if err != nil {
					t.Fatal(err)
				}
				o := integrityOpt(wl, true)
				o.Policy = p
				o.Model = p.Model()
				run, err := Build(o, nil)
				if err != nil {
					t.Fatal(err)
				}
				g, err := graph.Build(run.Trace, core.Params{Model: o.Model})
				if err != nil {
					t.Fatal(err)
				}
				out, err := observer.CrashTest(g, observer.Sampled{Samples: 120, Seed: 5}, run.Recover, sweep.Config{})
				if err != nil {
					t.Fatal(err)
				}
				if !out.AllRecovered() {
					t.Fatalf("%v", out)
				}
			})
		}
	}
}
