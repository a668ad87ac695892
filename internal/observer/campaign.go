// Fault campaigns: the observer's crash-state enumeration composed
// with device-fault injection (internal/fault).
//
// The plain observer asks "does recovery survive every reachable crash
// state?". A campaign asks the harsher question: "does recovery
// survive every reachable crash state *on a misbehaving device*?" —
// torn persists, dropped persists, transient write failures, and media
// bit errors layered onto each sampled cut. The correctness bar is
// fail-stop, not fail-free: every injected fault must be masked (no
// observable effect), salvaged (bounded data loss, disclosed in the
// RecoveryReport), or detected. The one documented exception is a
// silent bit flip that defeats the checksums; campaigns report those
// as a detection-rate statistic rather than a failure.
package observer

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/memory"
	"repro/internal/nvram"
	"repro/internal/sweep"
	"repro/internal/telemetry"
)

// CheckedRecoverFunc is the recovery contract every checker builds on:
// run the application's one recovery scan against a post-crash image,
// validate the recovered state against application invariants, and
// return what the recovery layer *reported* alongside what the
// validation *found*. A non-nil error with a clean report is the
// definition of silent corruption; Strict gives the strict reading.
type CheckedRecoverFunc func(*memory.Image) (fault.RecoveryReport, error)

// Class classifies one campaign scenario.
type Class int

const (
	// Masked: recovery succeeded and reported nothing — the faults had
	// no observable effect.
	Masked Class = iota
	// Salvaged: recovery disclosed degradation (quarantined/dropped
	// entries, poisoned media) and the recovered state satisfied the
	// application's invariants for the surviving data.
	Salvaged
	// DetectedRecovered: the integrity layer (CRC frames,
	// corruption-detecting booleans, shadow checksums; internal/durable)
	// flagged injected corruption and recovery nonetheless returned a
	// fully correct state — detect-and-recover, the corruption-detecting
	// format's design goal.
	DetectedRecovered
	// SilentBitMissed: the scenario injected a silent bit flip that
	// defeated the checksums — the one documented hole in the
	// fail-stop guarantee (an 8-byte FNV keyed checksum is not ECC).
	SilentBitMissed
	// AnnotationCorrupt: the *fault-free* baseline for this cut already
	// fails recovery — a persist-ordering annotation bug, found exactly
	// as the plain observer finds it.
	AnnotationCorrupt
	// SilentCorrupt: recovery returned success with a clean report but
	// the application invariants do not hold, and no silent bit flip
	// excuses it. A campaign finding one of these is a harness failure.
	SilentCorrupt
)

func (c Class) String() string {
	switch c {
	case Masked:
		return "masked"
	case Salvaged:
		return "salvaged"
	case DetectedRecovered:
		return "detected-recovered"
	case SilentBitMissed:
		return "silent-bit-missed"
	case AnnotationCorrupt:
		return "annotation-corrupt"
	case SilentCorrupt:
		return "SILENT-CORRUPT"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// Failure reports whether the class fails the campaign bar.
func (c Class) Failure() bool { return c == AnnotationCorrupt || c == SilentCorrupt }

// CampaignConfig parameterizes a fault campaign.
type CampaignConfig struct {
	// Scenarios is the number of (cut, plan) scenarios. 0 means 1000.
	Scenarios int
	// Seed drives cut sampling and plan generation.
	Seed int64
	// Gen parameterizes fault-plan generation.
	Gen fault.GenConfig
	// Params are workload parameters baked into emitted repro strings
	// (workload name, design, seed — whatever rebuilds the trace).
	Params []fault.Param
	// Device, when Latency > 0, charges each plan's transient write
	// failures into the nvram timing model and accumulates the cost.
	Device nvram.Config
	// Progress, when non-nil, receives the running outcome every 100
	// scenarios (progressEvery) and after the last one — live campaign
	// telemetry for long runs. It is called synchronously from the
	// merge loop in scenario order (deterministic at any worker
	// count); a FirstFailure it observes is not yet minimized —
	// minimization runs once, after the sweep.
	Progress func(out CampaignOutcome)
	// Sweep controls parallel scenario evaluation; the zero value uses
	// GOMAXPROCS workers. rec must then be safe for concurrent calls.
	// Scenario generation stays sequential (one rng stream) and
	// verdicts merge in scenario order, so the outcome — tallies,
	// progress sequence, first failure, minimized repro — is identical
	// at any worker count.
	Sweep sweep.Config
	// Spans, when non-nil, records wall-clock spans for the campaign's
	// phases: scenario generation, per-scenario classify (under category
	// "campaign"), and failure minimization. Set Sweep.Spans too to get
	// per-item worker attribution.
	Spans *telemetry.SpanTracer
}

// minimizeBudget caps the recovery executions spent shrinking a
// campaign's first failure.
const minimizeBudget = 2000

// progressEvery is the CampaignConfig.Progress stride in scenarios.
const progressEvery = 100

func (c *CampaignConfig) normalize() {
	if c.Scenarios == 0 {
		c.Scenarios = 1000
	}
}

// CampaignOutcome tallies a campaign.
type CampaignOutcome struct {
	Model     core.Model
	Persists  int
	Scenarios int

	Masked            int
	Salvaged          int
	DetectedRecovered int
	SilentBitMissed   int
	AnnotationCorrupt int
	SilentCorrupt     int

	// Integrity-layer detection totals summed over all scenarios'
	// recovery reports (zero unless the workload runs with the
	// corruption-detecting format).
	CRCDetected      int
	CDBDetected      int
	DiscardedRecords int

	// SilentBitSeen / SilentBitCaught give the silent-flip detection
	// rate: scenarios whose plan carried a silent flip, and how many of
	// those recovery nonetheless flagged.
	SilentBitSeen   int
	SilentBitCaught int

	// FirstFailure is the minimized repro of the first failing
	// scenario (class.Failure()), nil when the campaign is clean.
	FirstFailure      *fault.Scenario
	FirstFailureClass Class
	FirstError        error

	// Aggregated nvram retry cost (Device.Latency > 0 only).
	Retries        int
	RetryTime      time.Duration
	FailedPersists int
}

// Clean reports whether the campaign met the bar: no annotation bugs,
// no silent corruption. Undetected silent bit flips do not fail it.
func (o CampaignOutcome) Clean() bool {
	return o.AnnotationCorrupt == 0 && o.SilentCorrupt == 0
}

func (o CampaignOutcome) String() string {
	s := fmt.Sprintf("model %v: %d persists, %d scenarios: %d masked, %d salvaged",
		o.Model, o.Persists, o.Scenarios, o.Masked, o.Salvaged)
	if o.DetectedRecovered > 0 || o.CRCDetected > 0 || o.CDBDetected > 0 {
		s += fmt.Sprintf(", %d detected-recovered (crc %d, cdb %d)",
			o.DetectedRecovered, o.CRCDetected, o.CDBDetected)
	}
	if o.SilentBitSeen > 0 {
		s += fmt.Sprintf(", silent bits %d/%d caught", o.SilentBitCaught, o.SilentBitSeen)
	}
	if o.Retries > 0 {
		s += fmt.Sprintf(", %d retries (+%v, %d abandoned)", o.Retries, o.RetryTime, o.FailedPersists)
	}
	if !o.Clean() {
		s += fmt.Sprintf("; %d ANNOTATION-CORRUPT, %d SILENT-CORRUPT", o.AnnotationCorrupt, o.SilentCorrupt)
	}
	return s
}

// effectivePlan resolves transient-failure abandonment into state
// effects: a Retry fault reaching MaxRetries on a frontier persist
// means the data never hit media — a drop. A non-frontier persist
// cannot have been abandoned (its dependents persisted, so the write
// eventually stuck), so there the retry stays timing-only.
func effectivePlan(g *graph.Graph, c graph.Cut, p fault.Plan, maxRetries int) fault.Plan {
	if maxRetries <= 0 {
		maxRetries = 8 // nvram.Config default
	}
	onFrontier := map[graph.NodeID]bool{}
	for _, n := range g.Frontier(c) {
		onFrontier[n] = true
	}
	out := p
	for node, fails := range p.RetryProfile() {
		if fails >= maxRetries && onFrontier[node] {
			out = fault.Plan{Faults: append(append([]fault.Fault{}, out.Faults...),
				fault.Fault{Kind: fault.Drop, Node: node})}
		}
	}
	return out
}

// classify runs one scenario: the fault-free baseline first (isolating
// annotation bugs from device-fault handling bugs), then the faulted
// image. It also returns the faulted image's recovery report so
// campaigns can aggregate the integrity-layer detection counters.
func classify(g *graph.Graph, c graph.Cut, p fault.Plan, rec CheckedRecoverFunc, maxRetries int) (Class, fault.RecoveryReport, error) {
	baseRep, baseErr := rec(g.Materialize(c))
	if err := notClean("fault-free baseline", baseRep, baseErr); err != nil {
		// The cut itself — no faults — fails or trips the recovery
		// scan's detectors. Default-annotation workloads keep reports
		// clean on every legal cut, so this is an ordering bug.
		return AnnotationCorrupt, baseRep, err
	}
	rep, err := rec(fault.Materialize(g, c, effectivePlan(g, c, p, maxRetries)))
	switch {
	case err == nil && !rep.Detected():
		return Masked, rep, nil
	case err == nil && rep.DetectedByIntegrity():
		return DetectedRecovered, rep, nil
	case rep.Detected():
		return Salvaged, rep, err
	case p.HasSilentFlip():
		return SilentBitMissed, rep, err
	default:
		if err == nil {
			err = fmt.Errorf("undetected corruption")
		}
		return SilentCorrupt, rep, err
	}
}

// Campaign sweeps Scenarios random (cut, fault-plan) pairs over g, the
// traced execution's persist-order graph under the model tested,
// classifies each, and minimizes the first failure into a replayable
// repro.
func Campaign(g *graph.Graph, rec CheckedRecoverFunc, cfg CampaignConfig) (CampaignOutcome, error) {
	cfg.normalize()
	rng := rand.New(rand.NewSource(cfg.Seed))
	out := CampaignOutcome{Model: g.Params.Model, Persists: g.Len()}
	maxRetries := cfg.Device.MaxRetries

	// Adversarial prelude: the first scenarios use single-victim cuts
	// (everything persisted except one node and its dependents), which
	// deterministically expose any ordering hazard that hinges on one
	// persist — random cut sampling can miss narrow hazards. The
	// baseline check runs on every scenario's cut, so the prelude vets
	// annotations even while fault plans perturb the images.
	adversarial := g.Len()
	if adversarial > cfg.Scenarios/2 {
		adversarial = cfg.Scenarios / 2
	}

	// Phase 1, sequential: scenario generation consumes the rng stream
	// in exactly the order the sequential campaign always did, so equal
	// seeds yield equal (cut, plan) grids at any worker count.
	type scenario struct {
		c    graph.Cut
		plan fault.Plan
	}
	genSpan := cfg.Spans.Start("campaign", "scenario-gen").Arg("scenarios", cfg.Scenarios)
	scens := make([]scenario, cfg.Scenarios)
	for i := 0; i < cfg.Scenarios; i++ {
		var c graph.Cut
		if i < adversarial {
			c = g.DropCut(graph.NodeID(i))
		} else {
			c = g.SampleCut(rng, keepProbs[i%len(keepProbs)])
		}
		words := g.Materialize(c).WrittenWords()
		scens[i] = scenario{c: c, plan: fault.GenPlan(rng, g, c, words, cfg.Gen)}
	}
	genSpan.End()

	// Phase 2, parallel: classification and device scheduling only read
	// the shared graph; verdicts merge back in scenario order, keeping
	// the tallies, progress sequence, and first failure deterministic.
	type verdict struct {
		class   Class
		rep     fault.RecoveryReport
		cerr    error
		res     nvram.Result
		haveRes bool
	}
	firstIdx := -1
	err := sweep.Run(cfg.Scenarios, cfg.Sweep.Named("campaign"),
		func(i int) (verdict, error) {
			csp := cfg.Spans.Start("campaign", "classify").Arg("scenario", i)
			class, rep, cerr := classify(g, scens[i].c, scens[i].plan, rec, maxRetries)
			csp.End()
			v := verdict{class: class, rep: rep, cerr: cerr}
			if cfg.Device.Latency > 0 {
				if prof := scens[i].plan.RetryProfile(); len(prof) > 0 {
					res, serr := nvram.ScheduleWithFaults(g, cfg.Device, prof)
					if serr != nil {
						return verdict{}, serr
					}
					v.res, v.haveRes = res, true
				}
			}
			return v, nil
		},
		func(i int, v verdict) error {
			out.Scenarios++
			if scens[i].plan.HasSilentFlip() {
				out.SilentBitSeen++
				if v.class == Salvaged || v.class == DetectedRecovered {
					out.SilentBitCaught++
				}
			}
			out.CRCDetected += v.rep.CRCDetected
			out.CDBDetected += v.rep.CDBDetected
			out.DiscardedRecords += v.rep.DiscardedRecords
			switch v.class {
			case Masked:
				out.Masked++
			case Salvaged:
				out.Salvaged++
			case DetectedRecovered:
				out.DetectedRecovered++
			case SilentBitMissed:
				out.SilentBitMissed++
			case AnnotationCorrupt:
				out.AnnotationCorrupt++
			case SilentCorrupt:
				out.SilentCorrupt++
			}
			if v.class.Failure() && firstIdx < 0 {
				firstIdx = i
				out.FirstFailure = &fault.Scenario{Params: cfg.Params, Cut: scens[i].c, Plan: scens[i].plan}
				out.FirstFailureClass = v.class
				out.FirstError = v.cerr
			}
			if v.haveRes {
				out.Retries += v.res.Retries
				out.RetryTime += v.res.RetryTime
				out.FailedPersists += v.res.FailedPersists
			}
			if cfg.Progress != nil && (out.Scenarios%progressEvery == 0 || out.Scenarios == cfg.Scenarios) {
				cfg.Progress(out)
			}
			return nil
		})
	if err != nil {
		return out, err
	}

	// Phase 3, sequential: shrink the first failure into a replayable
	// repro. Running it after the sweep keeps the minimizer's greedy
	// recovery executions off the worker pool; the merge order above
	// guarantees this is the same failure the sequential campaign
	// would have minimized.
	if firstIdx >= 0 {
		msp := cfg.Spans.Start("campaign", "minimize").Arg("scenario", firstIdx)
		class := out.FirstFailureClass
		mc, mp := scens[firstIdx].c, scens[firstIdx].plan
		if class == AnnotationCorrupt {
			mp = fault.Plan{} // the empty plan already fails
		}
		mc, mp = MinimizeScenario(g, mc, mp, func(c2 graph.Cut, p2 fault.Plan) bool {
			cl, _, _ := classify(g, c2, p2, rec, maxRetries)
			return cl == class
		}, minimizeBudget)
		out.FirstFailure = &fault.Scenario{Params: cfg.Params, Cut: mc, Plan: mp}
		msp.End()
	}
	return out, nil
}

// MinimizeScenario greedily shrinks a failing scenario while bad()
// keeps returning true: first removes faults one at a time, then
// excludes frontier nodes from the cut (frontier removal keeps the cut
// downward-closed, so every intermediate scenario stays a reachable
// crash state), looping until a fixpoint or the budget runs out. The
// result is never larger than the input — faults and cut nodes are
// only ever removed.
func MinimizeScenario(g *graph.Graph, c graph.Cut, p fault.Plan, bad func(graph.Cut, fault.Plan) bool, budget int) (graph.Cut, fault.Plan) {
	spend := func() bool { budget--; return budget >= 0 }
	changed := true
	for changed {
		changed = false
		// Pass 1: drop faults that are not needed for the failure.
		for i := 0; i < p.Len(); {
			q := p.Without(i)
			if !spend() {
				return c, p
			}
			if bad(c, q) {
				p = q
				changed = true
			} else {
				i++
			}
		}
		// Pass 2: shrink the cut one frontier node at a time.
		for {
			shrunk := false
			for _, n := range g.Frontier(c) {
				c2 := graph.Cut{Included: append([]bool{}, c.Included...)}
				c2.Included[n] = false
				if !spend() {
					return c, p
				}
				if bad(c2, p) {
					c, shrunk, changed = c2, true, true
					break // frontier changed; recompute
				}
			}
			if !shrunk {
				break
			}
		}
	}
	return c, p
}

// Replay re-runs a parsed repro scenario against g, the graph of the
// freshly rebuilt workload under the scenario's model, and returns its
// classification. The caller must rebuild the workload with the same
// parameters recorded in the scenario; the graph's node count and the
// cut's down-closure are checked as cheap guards against mismatched
// workloads.
func Replay(g *graph.Graph, rec CheckedRecoverFunc, s *fault.Scenario, dev nvram.Config) (Class, error) {
	if g.Len() != len(s.Cut.Included) {
		return Masked, fmt.Errorf("observer: repro cut covers %d persists but workload produced %d (wrong parameters?)",
			len(s.Cut.Included), g.Len())
	}
	if !g.Valid(s.Cut) {
		return Masked, fmt.Errorf("observer: repro cut is not downward-closed for this workload")
	}
	class, _, err := classify(g, s.Cut, s.Plan, rec, dev.MaxRetries)
	return class, err
}
