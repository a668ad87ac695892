// Package observer implements the paper's *recovery observer*
// abstraction (§4) as an executable failure-injection harness.
//
// The paper reasons "about failure as a recovery observer that
// atomically reads all of persistent memory at the moment of failure";
// the set of states the observer may see is exactly the set of
// downward-closed cuts of the persist-order constraint graph. This
// package samples those cuts (or sweeps one per persist) from the graph
// of a traced execution under a chosen persistency model, materializes
// each cut into an NVRAM image, runs the application's recovery
// procedure on it, and tallies successes and corruption.
//
// Used positively, it verifies that a correctly annotated data
// structure recovers from *every* reachable crash state; used
// negatively (with a deliberately dropped persist barrier), it
// demonstrates that the ordering constraint was load-bearing by finding
// a reachable corrupt state.
package observer

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/memory"
	"repro/internal/sweep"
)

// RecoverFunc is the strict recovery contract: run the application's
// recovery procedure against a post-crash NVRAM image and return an
// error when the image does not recover cleanly. Each shipped
// structure has one recovery scan, which returns a fault.RecoveryReport
// (a CheckedRecoverFunc); Strict turns it into a RecoverFunc.
type RecoverFunc func(*memory.Image) error

// Strict is the strict reading of a checked recovery: an image
// recovers iff checked returns no error and a report whose Detected()
// is false. It returns checked's error, or else an error naming the
// report when the scan detected corruption (NotClean of "recovery").
func Strict(checked CheckedRecoverFunc) RecoverFunc {
	return func(im *memory.Image) error {
		rep, err := checked(im)
		return NotClean("recovery", rep, err)
	}
}

// NotClean is the strict rule on one checked result: err, or else,
// when rep detected corruption, an error naming what (the recovery or
// the campaign's fault-free baseline) and the report. Callers that
// already hold a checked result read it strictly with this instead of
// running the recovery again through Strict.
func NotClean(what string, rep fault.RecoveryReport, err error) error {
	if err == nil && rep.Detected() {
		err = fmt.Errorf("%s not clean: %s", what, rep.String())
	}
	return err
}

// keepProbs are the inclusion probabilities sampled cuts cycle through;
// crashes near the end of execution (keep→1) and near the beginning
// (keep→0) exercise different recovery paths.
var keepProbs = []float64{0.05, 0.25, 0.5, 0.75, 0.95, 0.999}

// A CutSource chooses the crash states CrashTest tries after the full
// and empty cuts, which are always reachable and always tried.
type CutSource interface {
	// cuts returns how many cuts the source adds for g and how to build
	// the i-th; cut is called from sweep workers, concurrently.
	cuts(g *graph.Graph) (int, func(i int) graph.Cut)
}

// Sampled draws Samples random cuts (zero means 100) from one rng
// stream seeded by Seed, cycling through the inclusion probabilities.
// The cuts are drawn before any is tried, in sampling order, so an
// outcome is identical at any worker count.
type Sampled struct {
	Samples int
	Seed    int64
}

func (s Sampled) cuts(g *graph.Graph) (int, func(int) graph.Cut) {
	n := s.Samples
	if n <= 0 {
		n = 100
	}
	rng := rand.New(rand.NewSource(s.Seed))
	cuts := make([]graph.Cut, n)
	for i := range cuts {
		cuts[i] = g.SampleCut(rng, keepProbs[i%len(keepProbs)])
	}
	return n, func(i int) graph.Cut { return cuts[i] }
}

// SingleVictim is the deterministic single-victim sweep: for every
// persist v, the *latest* crash at which v has not yet persisted
// (everything except v and its dependents, g.DropCut(v)). Any recovery
// invariant that hinges on one persist being ordered before others is
// violated by exactly one of these cuts, so — unlike random sampling —
// a clean sweep is a strong statement. Each cut is built inside its
// sweep item, so memory stays linear in the persist count.
type SingleVictim struct{}

func (SingleVictim) cuts(g *graph.Graph) (int, func(int) graph.Cut) {
	return g.Len(), func(i int) graph.Cut { return g.DropCut(graph.NodeID(i)) }
}

// Outcome summarizes a crash-testing run.
type Outcome struct {
	// Model echoes the persistency model tested.
	Model core.Model
	// Persists is the node count of the persist DAG.
	Persists int
	// Cuts is the number of crash states tested (including the full and
	// empty cuts, always tested).
	Cuts int
	// Recovered counts crash states whose recovery succeeded.
	Recovered int
	// Corrupt counts crash states whose recovery failed.
	Corrupt int
	// FirstCorruption carries the first recovery error observed, if any.
	FirstCorruption error
}

// AllRecovered reports whether no crash state was corrupt.
func (o Outcome) AllRecovered() bool { return o.Corrupt == 0 }

// String summarizes the outcome for logs.
func (o Outcome) String() string {
	status := "all recovered"
	if o.Corrupt > 0 {
		status = fmt.Sprintf("%d CORRUPT (first: %v)", o.Corrupt, o.FirstCorruption)
	}
	return fmt.Sprintf("model %v: %d persists, %d crash states: %s", o.Model, o.Persists, o.Cuts, status)
}

// CrashTest runs recovery on the full cut, the empty cut and then every
// cut src chooses of g, the persist-order graph graph.Build made under
// the model tested, and tallies the outcomes. Cuts are tried on the
// sweep pool sw (the zero value uses GOMAXPROCS workers), so rec must
// be safe for concurrent calls (recovery closures over read-only state
// are). Tallies merge in cut order, so the outcome — including which
// corruption is "first" — is identical at any worker count.
func CrashTest(g *graph.Graph, src CutSource, rec RecoverFunc, sw sweep.Config) (Outcome, error) {
	n, cut := src.cuts(g)
	out := Outcome{Model: g.Params.Model, Persists: g.Len()}
	err := sweep.Run(n+2, sw.Named("crash-cuts"),
		func(i int) (error, error) {
			var c graph.Cut
			switch i {
			case 0:
				c = g.Full()
			case 1:
				c = g.Empty()
			default:
				c = cut(i - 2)
			}
			return rec(g.Materialize(c)), nil
		},
		func(_ int, recErr error) error {
			out.Cuts++
			if recErr != nil {
				out.Corrupt++
				if out.FirstCorruption == nil {
					out.FirstCorruption = recErr
				}
			} else {
				out.Recovered++
			}
			return nil
		})
	if err != nil {
		return Outcome{}, err
	}
	return out, nil
}
