package fault

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/memory"
	"repro/internal/trace"
)

// chainGraph builds a manual 3-node chain a→b→c of word persists to
// distinct addresses (values 0x...01, 02, 03).
func chainGraph() *graph.Graph {
	g := &graph.Graph{}
	for i := 0; i < 3; i++ {
		g.AddNode("", trace.Event{
			Seq:  uint64(i),
			Kind: trace.Store,
			Size: 8,
			Addr: memory.PersistentBase + memory.Addr(i*8),
			Val:  0x1111111111111100 + uint64(i+1),
		})
	}
	g.AddEdge(0, 1, graph.ProgramOrder)
	g.AddEdge(1, 2, graph.ProgramOrder)
	return g
}

func TestMaterializeEmptyPlanMatchesGraph(t *testing.T) {
	g := chainGraph()
	for _, c := range []graph.Cut{g.Full(), g.Empty(), g.PrefixCut(2)} {
		if !Materialize(g, c, Plan{}).Equal(g.Materialize(c)) {
			t.Fatal("empty plan must reproduce graph.Materialize")
		}
	}
}

func TestMaterializeDropCascades(t *testing.T) {
	g := chainGraph()
	// Dropping the interior node 1 must exclude its dependent 2 as
	// well, leaving only node 0's write.
	im := Materialize(g, g.Full(), Plan{Faults: []Fault{{Kind: Drop, Node: 1}}})
	if got := im.ReadWord(memory.PersistentBase); got != 0x1111111111111101 {
		t.Fatalf("node 0 write lost: %#x", got)
	}
	for i := 1; i < 3; i++ {
		if got := im.ReadWord(memory.PersistentBase + memory.Addr(i*8)); got != 0 {
			t.Fatalf("node %d should be excluded, read %#x", i, got)
		}
	}
}

func TestMaterializeTornMaskAndCascade(t *testing.T) {
	g := chainGraph()
	// Tear node 0 keeping only byte 0: bytes 1..7 of its write are
	// lost, and nodes 1, 2 (dependents) are excluded entirely.
	im := Materialize(g, g.Full(), Plan{Faults: []Fault{{Kind: Torn, Node: 0, Mask: 0x01}}})
	if got := im.ReadWord(memory.PersistentBase); got != 0x01 {
		t.Fatalf("torn write = %#x, want 0x01 (byte 0 only)", got)
	}
	if got := im.ReadWord(memory.PersistentBase + 8); got != 0 {
		t.Fatalf("dependent of torn persist must be excluded, read %#x", got)
	}
	// Mask 0 (nothing landed) behaves like a drop.
	im = Materialize(g, g.Full(), Plan{Faults: []Fault{{Kind: Torn, Node: 2, Mask: 0}}})
	if got := im.ReadWord(memory.PersistentBase + 16); got != 0 {
		t.Fatalf("zero-mask tear should land nothing, read %#x", got)
	}
	if got := im.ReadWord(memory.PersistentBase + 8); got != 0x1111111111111102 {
		t.Fatalf("non-dependent write lost: %#x", got)
	}
}

func TestMaterializeFlips(t *testing.T) {
	g := chainGraph()
	a := memory.PersistentBase + 8
	im := Materialize(g, g.Full(), Plan{Faults: []Fault{
		{Kind: FlipSilent, Addr: a, Bit: 1},
		{Kind: FlipDetected, Addr: a + 16, Bit: 0},
	}})
	if got := im.ReadWord(a); got != 0x1111111111111102^0x02 {
		t.Fatalf("silent flip not applied: %#x", got)
	}
	if im.Poisoned(a) {
		t.Fatal("silent flip must not poison")
	}
	if !im.Poisoned(a + 16) {
		t.Fatal("detectable flip must poison the word")
	}
	// Retry faults never change the image.
	if !Materialize(g, g.Full(), Plan{Faults: []Fault{{Kind: Retry, Node: 1, Attempts: 3}}}).
		Equal(g.Materialize(g.Full())) {
		t.Fatal("retry fault must leave the image unchanged")
	}
}

func TestReproRoundTrip(t *testing.T) {
	g := chainGraph()
	s := &Scenario{
		Params: []Param{{"workload", "queue"}, {"design", "cwl"}, {"seed", "42"}},
		Cut:    g.PrefixCut(2),
		Plan: Plan{Faults: []Fault{
			{Kind: Torn, Node: 1, Mask: 0xa5},
			{Kind: Drop, Node: 0},
			{Kind: Retry, Node: 2, Attempts: 3},
			{Kind: FlipDetected, Addr: memory.PersistentBase + 13, Bit: 7},
			{Kind: FlipSilent, Addr: memory.PersistentBase + 64, Bit: 0},
		}},
	}
	line := s.Repro()
	back, err := ParseRepro(line)
	if err != nil {
		t.Fatalf("ParseRepro(%q): %v", line, err)
	}
	if !reflect.DeepEqual(s, back) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v\nline: %s", s, back, line)
	}
	if v, ok := back.Param("design"); !ok || v != "cwl" {
		t.Fatalf("Param(design) = %q, %v", v, ok)
	}
	// An empty plan (annotation-bug repro) round-trips too.
	s2 := &Scenario{Cut: g.Full()}
	back2, err := ParseRepro(s2.Repro())
	if err != nil {
		t.Fatal(err)
	}
	if back2.Plan.Len() != 0 || len(back2.Cut.Included) != 3 {
		t.Fatalf("empty-plan round trip: %+v", back2)
	}
}

func TestParseReproErrors(t *testing.T) {
	for _, bad := range []string{
		"",
		"fault2|a=b|cut=1:01|plan=",
		"fault1|a=b|cut=1:01",
		"fault1|=x|cut=1:01|plan=",
		"fault1||cut=9:00|plan=",
		"fault1||cut=1:01|plan=bogus@3",
		"fault1||cut=1:01|plan=torn@1",
		"fault1||cut=1:01|plan=flipd@zz.1",
		// Node ids are 32-bit: these used to wrap to node 0.
		"fault1||cut=1:01|plan=drop@4294967296",
		"fault1||cut=1:01|plan=torn@4294967296/0f",
		"fault1||cut=1:01|plan=retry@4294967296x2",
		"fault1||cut=1:01|plan=drop@2147483648",
		"fault1||cut=1:01|plan=drop@-1",
	} {
		if _, err := ParseRepro(bad); err == nil {
			t.Errorf("ParseRepro(%q) should fail", bad)
		}
	}
}

func TestGenPlanDeterministicAndLegal(t *testing.T) {
	g := chainGraph()
	c := g.Full()
	words := g.Materialize(c).WrittenWords()
	p1 := GenPlan(rand.New(rand.NewSource(7)), g, c, words, GenConfig{})
	p2 := GenPlan(rand.New(rand.NewSource(7)), g, c, words, GenConfig{})
	if !reflect.DeepEqual(p1, p2) {
		t.Fatalf("same rng seed must give same plan: %v vs %v", p1, p2)
	}
	frontier := map[graph.NodeID]bool{}
	for _, n := range g.Frontier(c) {
		frontier[n] = true
	}
	for seed := int64(0); seed < 50; seed++ {
		p := GenPlan(rand.New(rand.NewSource(seed)), g, c, words, GenConfig{})
		for _, f := range p.Faults {
			switch f.Kind {
			case Torn, Drop:
				if !frontier[f.Node] {
					t.Fatalf("seed %d: %v targets non-frontier node", seed, f)
				}
			case Retry:
				if f.Attempts <= 0 {
					t.Fatalf("seed %d: retry with no attempts", seed)
				}
			}
		}
	}
}

func TestPlanHelpers(t *testing.T) {
	p := Plan{Faults: []Fault{
		{Kind: Retry, Node: 3, Attempts: 2},
		{Kind: FlipSilent, Addr: memory.PersistentBase, Bit: 1},
		{Kind: Retry, Node: 3, Attempts: 1},
	}}
	if !p.HasSilentFlip() {
		t.Fatal("HasSilentFlip")
	}
	if got := p.RetryProfile(); got[3] != 3 {
		t.Fatalf("RetryProfile = %v", got)
	}
	q := p.Without(1)
	if q.Len() != 2 || q.HasSilentFlip() {
		t.Fatalf("Without: %+v", q)
	}
	if p.Len() != 3 {
		t.Fatal("Without must not mutate the receiver")
	}
}

func TestRecoveryReport(t *testing.T) {
	var r RecoveryReport
	if r.Detected() {
		t.Fatal("zero report must be clean")
	}
	r.Quarantined++
	if !r.Detected() {
		t.Fatal("quarantine is detection")
	}
	var h RecoveryReport
	h.HeaderQuarantined = true
	if !h.Detected() {
		t.Fatal("header quarantine is detection")
	}
	for i := 0; i < 20; i++ {
		h.Note("n%d", i)
	}
	if len(h.Notes) != maxNotes {
		t.Fatalf("notes should cap at %d, got %d", maxNotes, len(h.Notes))
	}
	r.Merge(h)
	if !r.HeaderQuarantined || r.Quarantined != 1 {
		t.Fatalf("merge: %+v", r)
	}
}

// refMaterialize is Materialize's cascade as a per-node forward pass
// over excluded flags: a node leaves the image when it is dropped or
// depends on an excluded node or on an included torn one.
func refMaterialize(g *graph.Graph, c graph.Cut, p Plan) *memory.Image {
	drop := map[graph.NodeID]bool{}
	torn := map[graph.NodeID]uint8{}
	for _, f := range p.Faults {
		switch f.Kind {
		case Drop:
			drop[f.Node] = true
			delete(torn, f.Node)
		case Torn:
			torn[f.Node] = f.Mask
			delete(drop, f.Node)
		}
	}
	im := memory.NewImage()
	excluded := make([]bool, g.Len())
	for i, n := range g.Nodes {
		id := graph.NodeID(i)
		if !c.Included[i] {
			continue
		}
		if drop[id] {
			excluded[i] = true
			continue
		}
		for _, e := range n.In {
			_, tornFrom := torn[e.From]
			if excluded[e.From] || (c.Included[e.From] && tornFrom) {
				excluded[i] = true
				break
			}
		}
		if excluded[i] {
			continue
		}
		for j := 0; j < int(n.Event.Size); j++ {
			if mask, ok := torn[id]; ok && mask&(1<<uint(j)) == 0 {
				continue
			}
			im.WriteBytes(n.Event.Addr+memory.Addr(j), []byte{byte(n.Event.Val >> (8 * j))})
		}
	}
	for _, f := range p.Faults {
		switch f.Kind {
		case FlipDetected:
			im.FlipBit(f.Addr, f.Bit)
			im.Poison(f.Addr)
		case FlipSilent:
			im.FlipBit(f.Addr, f.Bit)
		}
	}
	return im
}

// TestMaterializeMatchesReference compares Materialize with the
// per-node reference on random DAGs, sampled consistent cuts and plans
// that drop and tear any node, frontier or not, included or not, and
// name nodes the graph does not have.
func TestMaterializeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 300; iter++ {
		g := &graph.Graph{}
		n := 2 + rng.Intn(30)
		for i := 0; i < n; i++ {
			g.AddNode("", trace.Event{
				Seq: uint64(i), Kind: trace.Store, Size: 8,
				Addr: memory.PersistentBase + memory.Addr(8*rng.Intn(8)),
				Val:  rng.Uint64(),
			})
			for j := 0; j < i; j++ {
				if rng.Intn(6) == 0 {
					g.AddEdge(graph.NodeID(j), graph.NodeID(i), graph.ProgramOrder)
				}
			}
		}
		c := g.SampleCut(rng, rng.Float64())
		var p Plan
		for k := rng.Intn(5); k > 0; k-- {
			node := graph.NodeID(rng.Intn(n + 2))
			if rng.Intn(2) == 0 {
				p.Faults = append(p.Faults, Fault{Kind: Drop, Node: node})
			} else {
				p.Faults = append(p.Faults, Fault{Kind: Torn, Node: node, Mask: uint8(rng.Intn(256))})
			}
		}
		if !Materialize(g, c, p).Equal(refMaterialize(g, c, p)) {
			t.Fatalf("iter %d: Materialize differs from the reference for plan %v", iter, p)
		}
	}
}

// TestParsePlanLargestNode pins the upper end of the node range: the
// largest 32-bit id parses as itself.
func TestParsePlanLargestNode(t *testing.T) {
	p, err := ParsePlan("drop@2147483647;torn@2147483647/01;retry@2147483647x1")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range p.Faults {
		if f.Node != math.MaxInt32 {
			t.Fatalf("%v: node %d, want %d", f.Kind, f.Node, math.MaxInt32)
		}
	}
}
