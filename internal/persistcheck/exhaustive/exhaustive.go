// Package exhaustive is a bounded model checker over the persist-order
// constraint graph: it enumerates the *complete* reachable
// recovery-state space of a traced execution — every consistent cut of
// the graph, i.e. every NVRAM state a crash can expose under the model
// — and classifies each reachable post-crash state through the
// structure's own recovery entry points.
//
// Enumerating cuts directly is hopeless (the count is exponential in
// the antichain width of the graph), so the checker works at two
// levels of reduction, both exact with respect to the set of reachable
// states:
//
//   - Image dedup with antichain subsumption. Walking nodes in trace
//     (topological) order, a search state is the pair (partial NVRAM
//     image, killed-set) — the bytes decided persists wrote, plus the
//     future nodes an excluded ancestor already disqualifies. Two cuts
//     differing only in persists that cancel out (overwritten words,
//     rewrites of the same value, zero-writes to zero words) collapse
//     into one state. A state whose image equals another's and whose
//     killed-set is a superset explores a subset of the other's
//     reachable images, so it is folded away: the frontier kept per
//     image is an antichain of maximal states under that dominance
//     order.
//   - Read-set memoization. Distinct images whose differences recovery
//     never reads recover identically. Recovery outcomes are cached in
//     a decision trie keyed on the exact (address, value) sequence a
//     recovery run actually loaded from the image, so the number of
//     real recovery executions is the number of distinct recovery
//     *signatures*, usually orders of magnitude below the distinct
//     image count.
//
// Every reachable image is classified by running checked recovery (the
// structure's one recovery scan plus the application invariants) once
// and reading its result both as is and strictly (observer.NotClean,
// the rule observer.Strict applies):
//
//   - recovered: both readings succeed — the state is a
//     prefix-consistent recovered state.
//   - detected: the checked invariants hold but the scan's report
//     flags (and repairs) damage — a torn state the format detects.
//   - hazard: checked recovery fails — silent corruption or
//     unrecoverable loss.
//
// The verdict aggregates: durably linearizable (every reachable state
// recovered), detectably recoverable (every torn state detected), or
// hazardous — with a greedily minimized counterexample cut serialized
// as a `crashsim -replay` repro line.
package exhaustive

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/observer"
	"repro/internal/sweep"
)

// Class is the classification of one reachable post-crash image.
type Class uint8

const (
	// ClassRecovered: strict recovery succeeds.
	ClassRecovered Class = iota
	// ClassDetected: strict recovery errors, checked recovery flags
	// and repairs — the torn state is detectable.
	ClassDetected
	// ClassHazard: checked recovery fails — silent corruption or
	// unrecoverable state.
	ClassHazard
)

func (c Class) String() string {
	switch c {
	case ClassRecovered:
		return "recovered"
	case ClassDetected:
		return "detected"
	case ClassHazard:
		return "hazard"
	}
	return fmt.Sprintf("Class(%d)", uint8(c))
}

// Verdict is the aggregate correctness condition the structure meets
// on this trace under this model.
type Verdict uint8

const (
	// DurablyLinearizable: every reachable crash state recovers to a
	// consistent prefix with no intervention.
	DurablyLinearizable Verdict = iota
	// DetectablyRecoverable: some reachable states are torn, but every
	// one is flagged by recovery and salvaged.
	DetectablyRecoverable
	// Hazardous: at least one reachable state defeats checked
	// recovery.
	Hazardous
)

func (v Verdict) String() string {
	switch v {
	case DurablyLinearizable:
		return "durably-linearizable"
	case DetectablyRecoverable:
		return "detectably-recoverable"
	case Hazardous:
		return "hazardous"
	}
	return fmt.Sprintf("Verdict(%d)", uint8(v))
}

// Config bounds and parameterizes a check.
type Config struct {
	// Budget caps the number of simultaneously tracked search states
	// plus distinct reachable images; exceeding it aborts the check
	// with an error (the checker is *bounded*: it proves or refuses,
	// never silently samples). 0 means 1<<20.
	Budget int
	// MaxPersists refuses graphs larger than this before enumerating.
	// 0 means 4096.
	MaxPersists int
	// Sweep configures parallel state expansion and classification;
	// results are byte-identical at any worker count.
	Sweep sweep.Config
	// ReproParams, when set, are serialized into counterexample repro
	// lines (the workload's Options.Params()).
	ReproParams []fault.Param
}

// minimizeBudget caps counterexample-minimization classification
// probes.
const minimizeBudget = 4096

func (cfg Config) budget() int {
	if cfg.Budget > 0 {
		return cfg.Budget
	}
	return 1 << 20
}

func (cfg Config) maxPersists() int {
	if cfg.MaxPersists > 0 {
		return cfg.MaxPersists
	}
	return 4096
}

// Counterexample is a minimized hazardous crash state.
type Counterexample struct {
	// Cut is the consistent cut exposing the hazard.
	Cut graph.Cut
	// Included is the cut's persist count after minimization;
	// MinimizedFrom before.
	Included      int
	MinimizedFrom int
	// StrictErr and CheckedErr are the recovery errors the state
	// produced ("" for none).
	StrictErr  string
	CheckedErr string
	// Repro is the one-line crashsim -replay scenario (empty without
	// Config.ReproParams).
	Repro string
}

// Result is the outcome of one exhaustive check.
type Result struct {
	Model    core.Model
	Persists int
	// Cuts is the exact number of consistent cuts (reachable crash
	// states before reduction). When CutsSaturated is set it is a lower
	// bound instead: the count overflowed (Cuts is MaxUint64) or its
	// dynamic program outgrew Budget (Cuts is the partial count).
	Cuts          uint64
	CutsSaturated bool
	// States is the number of distinct reachable NVRAM images.
	States int
	// PeakLive is the peak simultaneously tracked search-state count;
	// Subsumed counts states folded by the antichain reduction.
	PeakLive int
	Subsumed uint64
	// Signatures is the number of distinct recovery read-set
	// signatures — the count of real recovery executions the
	// memoization trie could not avoid.
	Signatures int
	// Recovered/Detected/Hazards tally images per class.
	Recovered int
	Detected  int
	Hazards   int
	Verdict   Verdict
	// Counterexample is the first (in deterministic discovery order)
	// hazardous image's minimized cut; nil unless Verdict is
	// Hazardous.
	Counterexample *Counterexample
}

// String renders the result as the CLI's stable multi-line form.
func (r *Result) String() string {
	cuts := fmt.Sprintf("%d", r.Cuts)
	if r.CutsSaturated {
		cuts = ">=" + cuts
	}
	s := fmt.Sprintf("exhaustive: model=%v persists=%d cuts=%s states=%d signatures=%d peak-live=%d subsumed=%d\n",
		r.Model, r.Persists, cuts, r.States, r.Signatures, r.PeakLive, r.Subsumed)
	s += fmt.Sprintf("exhaustive: recovered=%d detected=%d hazards=%d verdict=%v\n",
		r.Recovered, r.Detected, r.Hazards, r.Verdict)
	if ce := r.Counterexample; ce != nil {
		s += fmt.Sprintf("exhaustive: counterexample cut %d/%d persists (minimized from %d): strict=%q checked=%q\n",
			ce.Included, r.Persists, ce.MinimizedFrom, ce.StrictErr, ce.CheckedErr)
		if ce.Repro != "" {
			s += "  repro: " + ce.Repro + "\n"
		}
	}
	return s
}

// CheckGraph enumerates every reachable post-crash image of g and
// classifies each through one checked recovery run: a checked error is
// a hazard, and a run without error whose report detected corruption
// is detected (the strict reading, observer.Strict, fails exactly
// those two). checked must be non-nil. strict is unused: the strict
// verdict is read off the checked result. It stays only because the
// benchmark harness passes one (ROADMAP.md item 11 deletes it).
//
// The enumeration and classification state comes from a pool (see
// enumPool), so a repeated check allocates little beyond its Result.
func CheckGraph(g *graph.Graph, model core.Model, strict observer.RecoverFunc, checked observer.CheckedRecoverFunc, cfg Config) (*Result, error) {
	if checked == nil {
		return nil, fmt.Errorf("exhaustive: nil checked recovery")
	}
	if g.Len() > cfg.maxPersists() {
		return nil, fmt.Errorf("exhaustive: %d persists exceeds MaxPersists %d (shrink the fixture or raise the bound)",
			g.Len(), cfg.maxPersists())
	}
	e := enumPool.Get().(*enumerator)
	defer enumPool.Put(e)
	return e.check(g, model, checked, cfg)
}

// check is CheckGraph's enumeration and classification on e, which may
// hold storage from earlier checks; it resets e before returning.
func (e *enumerator) check(g *graph.Graph, model core.Model, checked observer.CheckedRecoverFunc, cfg Config) (*Result, error) {
	defer e.reset()
	space, err := e.enumerate(g, cfg)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Model:         model,
		Persists:      g.Len(),
		Cuts:          space.cuts,
		CutsSaturated: space.cutsSat,
		States:        len(space.finals),
		PeakLive:      space.peakLive,
		Subsumed:      space.subsumed,
	}
	e.outs = slices.Grow(e.outs[:0], len(space.finals))[:len(space.finals)]
	if err := classifyAll(g, space, &e.tries, e.outs, checked, cfg, res); err != nil {
		return nil, err
	}
	switch {
	case res.Hazards > 0:
		res.Verdict = Hazardous
	case res.Detected > 0:
		res.Verdict = DetectablyRecoverable
	default:
		res.Verdict = DurablyLinearizable
	}
	return res, nil
}
