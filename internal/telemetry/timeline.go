package telemetry

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/memory"
	"repro/internal/stats"
)

// Tracer records the persist timeline of one simulation: every NVRAM
// write with its provenance (thread, epoch/strand, block, dependence
// level, and the binding constraint edge), plus the trace's annotation
// structure (epochs, strands, work brackets). It implements core.Probe;
// attach with Sim.SetProbe before feeding events.
//
// The tracer deliberately re-derives the critical path from the
// recorded constraint edges rather than trusting the simulator's
// levels: Verify checks that the longest recorded chain matches
// core.Result.CriticalPath exactly, so the provenance bookkeeping and
// the scalar timing model cross-check each other.
type Tracer struct {
	// Name labels the run in trace exports (one Perfetto process per
	// tracer), e.g. "cwl/epoch 8T".
	Name string
	// Model is the simulated persistency model.
	Model core.Model
	// SiteLabel maps a persist's address to an annotation-site label
	// for attribution (e.g. "head", "slot data"). Nil uses a generic
	// block label.
	SiteLabel func(memory.Addr) string

	nodes    []Node
	marks    []mark
	maxEvent int64
	tids     map[int32]bool
}

// Node is one placed NVRAM write.
type Node struct {
	// ID is the placement id (0-based, placement order).
	ID int64
	// EventIndex is the fed-event index of the placing store; LastEvent
	// is the index of the last store that coalesced into this write.
	EventIndex int64
	LastEvent  int64
	TID        int32
	Addr       memory.Addr
	Size       uint8
	Block      memory.BlockID
	// Level is the simulator-reported dependence level.
	Level int64
	// DepID/DepClass identify the binding constraint edge (-1: root).
	DepID    int64
	DepClass core.DepClass
	// Epoch and Strand are the issuing thread's annotation indices.
	Epoch, Strand int64
	// Coalesced counts later persists merged into this write.
	Coalesced int64
}

type markKind uint8

const (
	markEpoch markKind = iota
	markStrand
	markBeginWork
	markEndWork
)

type mark struct {
	kind  markKind
	tid   int32
	event int64
	index int64 // epoch/strand index after the mark
	id    uint64
	sync  bool
}

// NewTracer returns an empty tracer for one simulation run.
func NewTracer(model core.Model, name string) *Tracer {
	return &Tracer{Model: model, Name: name, tids: make(map[int32]bool)}
}

// PersistPlaced implements core.Probe.
func (t *Tracer) PersistPlaced(r core.PersistRecord) {
	t.note(r.TID, r.EventIndex)
	if r.Coalesced {
		if r.ID >= 0 && r.ID < int64(len(t.nodes)) {
			n := &t.nodes[r.ID]
			n.Coalesced++
			if r.EventIndex > n.LastEvent {
				n.LastEvent = r.EventIndex
			}
		}
		return
	}
	if r.ID != int64(len(t.nodes)) {
		panic(fmt.Sprintf("telemetry: persist id %d out of order (have %d nodes)", r.ID, len(t.nodes)))
	}
	t.nodes = append(t.nodes, Node{
		ID: r.ID, EventIndex: r.EventIndex, LastEvent: r.EventIndex,
		TID: r.TID, Addr: r.Addr, Size: r.Size, Block: r.Block,
		Level: r.Level, DepID: r.DepID, DepClass: r.DepClass,
		Epoch: r.Epoch, Strand: r.Strand,
	})
}

// EpochMark implements core.Probe.
func (t *Tracer) EpochMark(tid int32, event, epoch int64, sync bool) {
	t.note(tid, event)
	t.marks = append(t.marks, mark{kind: markEpoch, tid: tid, event: event, index: epoch, sync: sync})
}

// StrandMark implements core.Probe.
func (t *Tracer) StrandMark(tid int32, event, strand int64) {
	t.note(tid, event)
	t.marks = append(t.marks, mark{kind: markStrand, tid: tid, event: event, index: strand})
}

// WorkMark implements core.Probe.
func (t *Tracer) WorkMark(tid int32, event int64, id uint64, begin bool) {
	t.note(tid, event)
	k := markEndWork
	if begin {
		k = markBeginWork
	}
	t.marks = append(t.marks, mark{kind: k, tid: tid, event: event, id: id})
}

func (t *Tracer) note(tid int32, event int64) {
	if event > t.maxEvent {
		t.maxEvent = event
	}
	t.tids[tid] = true
}

// Nodes returns the recorded NVRAM writes in placement order.
func (t *Tracer) Nodes() []Node { return t.nodes }

// CoalescedTotal sums the coalesce counts across all writes.
func (t *Tracer) CoalescedTotal() int64 {
	var n int64
	for i := range t.nodes {
		n += t.nodes[i].Coalesced
	}
	return n
}

// depths reconstructs each write's critical-path depth purely from the
// recorded constraint edges: depth = depth(dep) + 1. Placement order
// guarantees DepID < ID, so one forward pass suffices.
func (t *Tracer) depths() []int64 {
	d := make([]int64, len(t.nodes))
	for i := range t.nodes {
		dep := t.nodes[i].DepID
		if dep < 0 {
			d[i] = 1
			continue
		}
		if dep >= int64(i) {
			panic(fmt.Sprintf("telemetry: node %d depends on later node %d", i, dep))
		}
		d[i] = d[dep] + 1
	}
	return d
}

// CriticalPath returns the longest constraint chain reconstructed from
// the recorded edges (in persists), independent of the levels the
// simulator reported.
func (t *Tracer) CriticalPath() int64 {
	var max int64
	for _, d := range t.depths() {
		if d > max {
			max = d
		}
	}
	return max
}

// Verify cross-checks the recorded timeline against a simulation
// result: placement and coalesce counts must match, every node's
// reconstructed depth must equal its reported level, and the
// reconstructed critical path must equal the simulator's. A failure
// means the timing model and its provenance disagree.
func (t *Tracer) Verify(r core.Result) error {
	if int64(len(t.nodes)) != r.Placed {
		return fmt.Errorf("telemetry: tracer has %d placed persists, simulator reports %d", len(t.nodes), r.Placed)
	}
	if c := t.CoalescedTotal(); c != r.Coalesced {
		return fmt.Errorf("telemetry: tracer has %d coalesced persists, simulator reports %d", c, r.Coalesced)
	}
	depths := t.depths()
	var max int64
	for i, d := range depths {
		if d != t.nodes[i].Level {
			return fmt.Errorf("telemetry: node %d (t%d %#x): reconstructed depth %d != reported level %d",
				i, t.nodes[i].TID, uint64(t.nodes[i].Addr), d, t.nodes[i].Level)
		}
		if d > max {
			max = d
		}
	}
	if max != r.CriticalPath {
		return fmt.Errorf("telemetry: reconstructed critical path %d != simulator's %d", max, r.CriticalPath)
	}
	return nil
}

// Chain is one constraint chain, root first.
type Chain struct {
	// IDs are the node ids on the chain, root first.
	IDs []int64
	// Length is len(IDs) — the chain's contribution to the critical path.
	Length int64
	// Classes counts the chain's edges by constraint class (the root
	// node contributes a DepNone entry).
	Classes map[core.DepClass]int64
}

// Chains returns up to k maximal constraint chains ordered by length
// (longest first). Chains are edge-disjoint: a node already reported on
// a longer chain terminates a later one.
func (t *Tracer) Chains(k int) []Chain {
	depths := t.depths()
	order := make([]int, len(t.nodes))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if depths[order[a]] != depths[order[b]] {
			return depths[order[a]] > depths[order[b]]
		}
		return order[a] < order[b]
	})
	visited := make([]bool, len(t.nodes))
	var out []Chain
	for _, end := range order {
		if len(out) >= k {
			break
		}
		if visited[end] {
			continue
		}
		var ids []int64
		classes := make(map[core.DepClass]int64)
		for id := int64(end); id >= 0; {
			ids = append(ids, id)
			classes[t.nodes[id].DepClass]++
			if visited[id] {
				break // continue into an already-reported chain no further
			}
			visited[id] = true
			id = t.nodes[id].DepID
		}
		// Reverse into root-first order.
		for i, j := 0, len(ids)-1; i < j; i, j = i+1, j-1 {
			ids[i], ids[j] = ids[j], ids[i]
		}
		out = append(out, Chain{IDs: ids, Length: depths[end], Classes: classes})
	}
	return out
}

// site labels a persist address for attribution.
func (t *Tracer) site(a memory.Addr) string {
	if t.SiteLabel != nil {
		return t.SiteLabel(a)
	}
	return fmt.Sprintf("blk %#x", uint64(memory.AlignDown(a, 64)))
}

// SiteShare is one annotation site's contribution to the critical path.
type SiteShare struct {
	Site  string
	Count int64
	Share float64 // fraction of the longest chain's nodes
}

// Attribution is the critical-path attribution report.
type Attribution struct {
	Model     core.Model
	Name      string
	Placed    int64
	Coalesced int64
	// CriticalPath is the reconstructed critical path.
	CriticalPath int64
	// EdgesByClass counts every placed persist's binding constraint by
	// class (DepNone = roots).
	EdgesByClass map[core.DepClass]int64
	// Chains are the top-k chains (longest first).
	Chains []Chain
	// Sites attributes the longest chain's nodes to annotation sites,
	// largest contribution first.
	Sites []SiteShare
}

// Attribute builds the attribution report with up to k chains.
func (t *Tracer) Attribute(k int) *Attribution {
	a := &Attribution{
		Model: t.Model, Name: t.Name,
		Placed: int64(len(t.nodes)), Coalesced: t.CoalescedTotal(),
		CriticalPath: t.CriticalPath(),
		EdgesByClass: make(map[core.DepClass]int64),
	}
	for i := range t.nodes {
		a.EdgesByClass[t.nodes[i].DepClass]++
	}
	a.Chains = t.Chains(k)
	if len(a.Chains) > 0 {
		counts := make(map[string]int64)
		for _, id := range a.Chains[0].IDs {
			counts[t.site(t.nodes[id].Addr)]++
		}
		total := int64(len(a.Chains[0].IDs))
		for site, n := range counts {
			a.Sites = append(a.Sites, SiteShare{Site: site, Count: n, Share: float64(n) / float64(total)})
		}
		sort.Slice(a.Sites, func(i, j int) bool {
			if a.Sites[i].Count != a.Sites[j].Count {
				return a.Sites[i].Count > a.Sites[j].Count
			}
			return a.Sites[i].Site < a.Sites[j].Site
		})
	}
	return a
}

// Render formats the report as text.
func (a *Attribution) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "critical-path attribution: %s (model %v)\n", a.Name, a.Model)
	fmt.Fprintf(&b, "  %d NVRAM writes (%d coalesced away), critical path %d\n",
		a.Placed, a.Coalesced, a.CriticalPath)

	cls := stats.NewTable("constraint-class", "binding-edges", "share")
	for _, c := range core.DepClasses {
		n := a.EdgesByClass[c]
		if n == 0 {
			continue
		}
		share := 0.0
		if a.Placed > 0 {
			share = float64(n) / float64(a.Placed)
		}
		cls.AddRow(c.String(), fmt.Sprintf("%d", n), fmt.Sprintf("%.1f%%", 100*share))
	}
	b.WriteString(cls.String())

	if len(a.Chains) > 0 {
		ch := stats.NewTable("chain", "length", "root", "program-order", "conflict", "atomicity")
		for i, c := range a.Chains {
			ch.AddRow(fmt.Sprintf("#%d", i+1), fmt.Sprintf("%d", c.Length),
				fmt.Sprintf("%d", c.Classes[core.DepNone]),
				fmt.Sprintf("%d", c.Classes[core.DepProgramOrder]),
				fmt.Sprintf("%d", c.Classes[core.DepConflict]),
				fmt.Sprintf("%d", c.Classes[core.DepAtomicity]))
		}
		b.WriteString("top chains (edge classes along each):\n")
		b.WriteString(ch.String())
	}
	if len(a.Sites) > 0 {
		st := stats.NewTable("site", "persists-on-path", "share")
		for _, s := range a.Sites {
			st.AddRow(s.Site, fmt.Sprintf("%d", s.Count), fmt.Sprintf("%.1f%%", 100*s.Share))
		}
		b.WriteString("longest chain by annotation site:\n")
		b.WriteString(st.String())
	}
	return b.String()
}

// ObserveMetrics records the tracer's totals into a registry: placed
// and coalesced writes and binding constraint edges by class, labeled
// by model and run name.
func (t *Tracer) ObserveMetrics(reg *Registry) {
	reg.SetHelp("tracer_constraint_edges_total", "binding constraint edges recorded by the persist tracer, by class")
	reg.SetHelp("tracer_writes_total", "NVRAM writes recorded by the persist tracer")
	reg.SetHelp("tracer_coalesced_total", "persists coalesced into recorded writes")
	model := t.Model.String()
	byClass := make(map[core.DepClass]int64)
	for i := range t.nodes {
		byClass[t.nodes[i].DepClass]++
	}
	for c, n := range byClass {
		reg.Counter(Label("tracer_constraint_edges_total",
			"model", model, "workload", t.Name, "class", c.String())).Add(n)
	}
	reg.Counter(Label("tracer_writes_total", "model", model, "workload", t.Name)).Add(int64(len(t.nodes)))
	reg.Counter(Label("tracer_coalesced_total", "model", model, "workload", t.Name)).Add(t.CoalescedTotal())
}
