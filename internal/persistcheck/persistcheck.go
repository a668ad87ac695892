// Package persistcheck is a static (trace-level) persistency checker:
// it consumes a recorded SC trace plus the persist-order constraint
// graph for a persistency model and reports persistency hazards without
// running the crash simulator.
//
// The paper's central observation is that relaxed persistency models
// admit crash states that sequentially consistent execution order never
// exhibits — bugs invisible to ordinary testing, reachable only through
// the recovery observer (§4). Sampling crash states (internal/observer)
// finds such bugs probabilistically; persistcheck instead analyzes the
// ordering semantics directly, in the spirit of dedicated persistency
// checkers (Ben-David et al.'s survey of persistent-memory correctness
// conditions; Klimis et al.'s "Lost in Interpretation"). Four analyses
// run over one graph build:
//
//   - epoch-race detection (§5.2): a vector-clock persist-happens-before
//     pass over persist epochs that flags conflicting epochs whose
//     persists are left mutually unordered under the model although the
//     SC trace orders them — the exact divergence the recovery observer
//     exploits. Every reported race carries a concrete witness pair and
//     the divergent consistent cut that exhibits it.
//   - unpersisted-publication lint: a persist to recovery-critical
//     metadata (queue head, journal commit record, PSTM seal — declared
//     through the Annotations API) that is not ordered after the data it
//     publishes, so recovery can observe the publication without the
//     payload.
//   - redundant-barrier lint: persist barriers and strand boundaries
//     that induce no new edge in the constraint graph under the model —
//     pure execution cost (§4.1's motivation for minimizing stalls).
//   - escape check: a persistent load whose imported persist dependence
//     is discarded (by a NewStrand) or not yet bound when the thread
//     next persists, for locations the application declared
//     order-critical (§5.3's "a persist strand begins by reading
//     persisted memory locations after which new persists must be
//     ordered").
//
// The passes share one graph.Reach and one address index over the
// annotations (addrIndex): an event is tested only against the
// publications and regions whose spans cover its address, found by one
// binary search, so a pass costs O(events × log annotations) plus the
// candidates it tests, not O(events × annotations). The passes that
// look only at persists (publications, barrier sites) read them from
// g.Nodes, whose ids ascend in trace order; the escape check walks the
// trace, since it needs loads and NewStrand too.
//
// Each hazard finding carries a one-line repro string in the
// fault-campaign replay format (internal/fault), whose cut section is
// the divergent crash state; `crashsim -replay` materializes it.
package persistcheck

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/memory"
	"repro/internal/trace"
)

// Extent is a byte range of the persistent address space.
type Extent struct {
	Addr memory.Addr
	Size uint64
}

// Contains reports whether the access [a, a+size) lies inside the
// extent.
func (x Extent) Contains(a memory.Addr, size uint8) bool {
	return a >= x.Addr && uint64(a-x.Addr)+uint64(size) <= x.Size
}

// Publication declares one recovery-critical publication word: a
// persistent word whose persists make previously written data reachable
// to recovery (the queue's head pointer, the journal's committed-head,
// the PSTM seal). The checker verifies that every publication persist is
// ordered after the covered data persists it publishes.
type Publication struct {
	// Name labels findings (e.g. "head", "committed-head", "done").
	Name string
	// Word is the publication word's address (8 bytes).
	Word memory.Addr
	// Data lists the extents the word publishes. A publication persist
	// must be ordered after every in-scope data persist to these extents.
	Data []Extent
	// ValueCovers marks words holding a monotonic byte offset into
	// Data[0]: a data persist at Data[0]+idx is published once a
	// persisted value v satisfies idx+size ≤ v. This enables the
	// cross-thread check (a thread publishing another thread's data, as
	// in the two-lock queue); it applies only while v ≤ Data[0].Size
	// (before the ring wraps, offsets map to addresses uniquely).
	ValueCovers bool
	// AllThreads widens a plain (non-ValueCovers) publication's scope
	// from the issuing thread's pending data persists to every thread's:
	// each publication persist must be ordered after all SC-earlier
	// uncovered data persists, regardless of issuer. This expresses
	// state-summary words whose value speaks for other threads' state —
	// the PSTM arm word (overwriting it hides the previous transaction's
	// in-flight evidence) and the journal checkpoint (truncating retires
	// other threads' applies). Coverage is sticky: persists to the same
	// word serialize under strong persist atomicity, so data covered by
	// one publication persist is covered by all later ones.
	AllThreads bool
}

// Region declares an order-critical persistent word for the escape
// check: once a thread loads it, the thread's subsequent persists must
// be ordered after the word's latest persist (§5.3's strand recipe; the
// journal checkpoint and PSTM seal are the in-tree examples).
type Region struct {
	Name string
	Addr memory.Addr
	Size uint64
	// Covers optionally scopes the contract to persists falling inside
	// the listed extents: only those must be ordered after the observed
	// region persist. Empty means every persist the thread issues (the
	// single-structure reading). Composed stores (the sharded kv) scope
	// each shard's region to that shard's own persistent extents, so a
	// thread that observed one shard's checkpoint is not obligated for
	// persists into an unrelated shard.
	Covers []Extent
}

// Annotations is the application-declared recovery metadata the checker
// reasons about. Structures expose it from their Meta (queue, journal,
// pstm each provide a Checks method).
type Annotations struct {
	Pubs       []Publication
	OrderAfter []Region
	// Protected lists the extents whose contents are covered by an
	// integrity mechanism (CRC frame, shadow checksum, dual-copy durable
	// word) so recovery *detects* silent media corruption there instead
	// of trusting it. The unprotected-metadata lint flags declared
	// recovery metadata (publication words, order-after regions) falling
	// outside every Protected extent: such a word is a single point of
	// silent failure — one bit flip re-frames the structure with a clean
	// report.
	Protected []Extent
}

// Merge combines annotation sets (for workloads composing structures).
func (a Annotations) Merge(b Annotations) Annotations {
	return Annotations{
		Pubs:       append(append([]Publication{}, a.Pubs...), b.Pubs...),
		OrderAfter: append(append([]Region{}, a.OrderAfter...), b.OrderAfter...),
		Protected:  append(append([]Extent{}, a.Protected...), b.Protected...),
	}
}

// Config parameterizes a check.
type Config struct {
	// Limit caps stored findings per analysis kind; 0 means 32. The
	// per-kind total is always counted.
	Limit int
	// ReproParams, when set, are embedded in each hazard's repro string
	// so `crashsim -replay` can rebuild the workload (same convention as
	// fault campaigns). Without them repro strings are omitted.
	ReproParams []fault.Param
	// SiteLabel optionally maps a persist address to an annotation-site
	// label for reports, matching telemetry.Tracer.SiteLabel.
	SiteLabel func(memory.Addr) string
}

func (c *Config) limit() int {
	if c.Limit <= 0 {
		return 32
	}
	return c.Limit
}

func (c *Config) site(a memory.Addr) string {
	if c.SiteLabel == nil {
		return ""
	}
	return c.SiteLabel(a)
}

// Check builds the trace's constraint graph under p (coalescing is
// irrelevant to ordering, as in package graph) and runs CheckGraph's
// analyses over it. Callers that hand the graph to other checkers too
// build it once and call CheckGraph; the pipeline benchmark's kv-graph
// job calls Check.
func Check(tr *trace.Trace, p core.Params, ann Annotations, cfg Config) (*Report, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	g, err := graph.Build(tr, p)
	if err != nil {
		return nil, err
	}
	return check(tr, g, ann, cfg), nil
}

// CheckGraph runs all analyses over one trace and the graph graph.Build
// built from it, under the model the graph records. It refuses a graph
// whose persists or annotations do not match the trace's.
func CheckGraph(tr *trace.Trace, g *graph.Graph, ann Annotations, cfg Config) (*Report, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	if n := tr.CountPersists(); g.Len() != n {
		return nil, fmt.Errorf("persistcheck: graph has %d persists, trace %d", g.Len(), n)
	}
	for _, n := range g.Nodes {
		if n.Event.Seq >= uint64(tr.Len()) {
			return nil, fmt.Errorf("persistcheck: graph node %d has seq %d beyond the trace's %d events", n.ID, n.Event.Seq, tr.Len())
		}
	}
	if n := tr.CountAnnotations(); len(g.Barriers) != n {
		return nil, fmt.Errorf("persistcheck: graph records %d annotations, trace has %d", len(g.Barriers), n)
	}
	// The passes read persists from g.Nodes and number the trace's
	// persists in order, so node i must be the trace's i-th persist.
	for i, n := range g.Nodes {
		if i > 0 && n.Event.Seq <= g.Nodes[i-1].Event.Seq {
			return nil, fmt.Errorf("persistcheck: graph node %d has seq %d, not after node %d's %d", i, n.Event.Seq, i-1, g.Nodes[i-1].Event.Seq)
		}
		if e := tr.At(int(n.Event.Seq)); !e.IsPersist() {
			return nil, fmt.Errorf("persistcheck: graph node %d has seq %d, a %s, not a persist", i, n.Event.Seq, e.Kind)
		}
	}
	return check(tr, g, ann, cfg), nil
}

// check runs every analysis over a graph built from tr.
func check(tr *trace.Trace, g *graph.Graph, ann Annotations, cfg Config) *Report {
	p := g.Params
	r := &Report{Model: p.Model, Events: tr.Len(), Persists: g.Len(), Counts: map[Kind]int{}}
	idx := &graphIndex{Reach: graph.NewReach(g), addr: newAddrIndex(ann)}

	checkPublications(g, idx, ann, cfg, r)
	checkEscapes(tr, g, idx, p, ann, cfg, r)
	checkEpochRaces(tr, g, idx, p, cfg, r)
	checkBarriers(g, p, cfg, r)
	checkUnprotected(g, ann, cfg, r)
	return r
}

// addHazard counts a hazard finding and, while its kind is under the
// limit, stores it with its divergent cut and that cut's repro line.
// The cut is the down-closure of WitnessB: the earliest crash state
// exposing B without A. It is valid under the model by construction and
// invalid under any model that orders A before B (in particular SC
// order, since A precedes B in the trace), which is what makes the
// state SC-divergent. Findings past the limit never build either.
func (r *Report) addHazard(f Finding, reach *graph.Reach, cfg Config) {
	if !r.keep(f.Kind, cfg.limit()) {
		return
	}
	f.Cut = reach.DownClosure(f.WitnessB)
	f.Repro = cfg.repro(f.Cut)
	r.Findings = append(r.Findings, f)
}

// repro serializes a finding's divergent cut into the fault-campaign
// replay format (empty fault plan).
func (c *Config) repro(cut graph.Cut) string {
	if len(c.ReproParams) == 0 {
		return ""
	}
	s := fault.Scenario{Params: c.ReproParams, Cut: cut}
	return s.Repro()
}

func fmtPersist(e trace.Event) string {
	return fmt.Sprintf("#%d t%d %s %#x/%d", e.Seq, e.TID, e.Kind, uint64(e.Addr), e.Size)
}
