package exhaustive

import (
	"fmt"
	"sync"

	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/memory"
	"repro/internal/observer"
	"repro/internal/sweep"
)

// outcome is the classification of one recovery signature.
type outcome struct {
	class      Class
	strictErr  string
	checkedErr string
}

// readEv is one observed pristine-image word load.
type readEv struct {
	addr memory.Addr
	val  uint64
}

// trie memoizes recovery outcomes by read signature: each node awaits
// one image word (the next address the recovery loads after the reads
// on the path so far) and branches on its value. Recovery is a
// deterministic function of the words it reads, so two images that
// agree on a complete root-to-leaf path share the leaf's outcome
// without re-running recovery. Reads of words the recovery itself
// wrote or already read are excluded from signatures — their values
// are implied by the pristine reads before them.
//
// Each node stores its address's slot in the enumeration's word table
// (resolved once, at insert), and a lookup first spreads the image
// into a dense slot-indexed buffer, so every level is one index and a
// compare against the node's first child — almost every node has
// exactly one. Nodes come from a slab, so the nodes of one inserted
// path sit next to each other.
//
// The trie is a pure cache shared across sweep workers (mutex-guarded,
// recoveries run unlocked): outcomes are a function of the image, so
// results are deterministic at any worker count.
type trie struct {
	mu     sync.Mutex
	words  *wordTable
	root   tnode
	store  *trieStore
	leaves int
}

// trieStore is the storage a trie draws on, kept in the pooled
// enumerator so a repeated check reuses it: node chunks, and the
// scratch buffers of classifying goroutines that finished.
type trieStore struct {
	nodes slab[tnode]
	spare []*scratch
}

type tnode struct {
	addr  memory.Addr
	val   uint64 // the value read that leads to kid
	kid   *tnode // first child
	more  []tkid // further children
	out   *outcome
	slot  int32 // addr's slot; len(addrs), always 0 in dense, when no persist writes it
	known bool  // addr is set (some recovery reached and expanded this node)
}

// tkid is one further child of a trie node: the subtrie for one value
// read.
type tkid struct {
	val  uint64
	node *tnode
}

// child returns the subtrie for value v, or nil.
func (n *tnode) child(v uint64) *tnode {
	if n.kid != nil && n.val == v {
		return n.kid
	}
	for _, k := range n.more {
		if k.val == v {
			return k.node
		}
	}
	return nil
}

// scratch is one classifying goroutine's reusable buffers.
type scratch struct {
	dense   []uint64                 // slot-indexed image words and a last, unwritten slot; zero between lookups
	seq     []readEv                 // the reads of the latest recovery run
	img     []wordVal                // a final's image
	implied map[memory.Addr]struct{} // the words the latest recovery run wrote or already read
}

// scratch returns a scratch buffer set for one goroutine, a spare one
// from the store when it has one. A spare dense buffer is all zero, so
// it only needs the right length.
func (tr *trie) scratch() *scratch {
	var sc *scratch
	tr.mu.Lock()
	if n := len(tr.store.spare); n > 0 {
		sc = tr.store.spare[n-1]
		tr.store.spare = tr.store.spare[:n-1]
	}
	tr.mu.Unlock()
	if sc == nil {
		sc = &scratch{}
	}
	if need := len(tr.words.addrs) + 1; cap(sc.dense) >= need {
		sc.dense = sc.dense[:need]
	} else {
		sc.dense = make([]uint64, need)
	}
	return sc
}

// done hands a scratch buffer set back to the store.
func (tr *trie) done(sc *scratch) {
	tr.mu.Lock()
	tr.store.spare = append(tr.store.spare, sc)
	tr.mu.Unlock()
}

// lookup walks img down the trie; ok is false on the first unexplored
// branch.
func (tr *trie) lookup(img []wordVal, sc *scratch) (*outcome, bool) {
	for _, w := range img {
		sc.dense[w.slot] = w.val
	}
	tr.mu.Lock()
	out, ok := tr.walk(sc.dense)
	tr.mu.Unlock()
	for _, w := range img {
		sc.dense[w.slot] = 0
	}
	return out, ok
}

// walk follows dense down the trie. A node is a leaf (out set), a
// branch (known, with at least one child) or unexplored (neither).
func (tr *trie) walk(dense []uint64) (*outcome, bool) {
	n := &tr.root
	for n.kid != nil {
		if n = n.child(dense[n.slot]); n == nil {
			return nil, false
		}
	}
	return n.out, n.out != nil
}

// insert records a completed recovery's read signature and outcome,
// returning the canonical outcome for the path (an earlier concurrent
// run's, if one raced).
func (tr *trie) insert(seq []readEv, out outcome) (*outcome, error) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	n := &tr.root
	for _, ev := range seq {
		if n.out != nil {
			return n.out, nil
		}
		if !n.known {
			n.known = true
			n.addr = ev.addr
			n.slot = tr.words.slot(ev.addr)
			if n.slot < 0 {
				n.slot = int32(len(tr.words.addrs))
			}
		} else if n.addr != ev.addr {
			return nil, fmt.Errorf("exhaustive: nondeterministic recovery: read %#x where a previous run read %#x after an identical prefix",
				uint64(ev.addr), uint64(n.addr))
		}
		kid := n.child(ev.val)
		if kid == nil {
			kid = &tr.store.nodes.take(1)[0]
			if n.kid == nil {
				n.val, n.kid = ev.val, kid
			} else {
				n.more = append(n.more, tkid{val: ev.val, node: kid})
			}
		}
		n = kid
	}
	if n.known {
		return nil, fmt.Errorf("exhaustive: nondeterministic recovery: one run finished where another kept reading %#x", uint64(n.addr))
	}
	if n.out == nil {
		o := out
		n.out = &o
		tr.leaves++
	}
	return n.out, nil
}

// classify returns img's outcome, running the recovery entry points
// only on a signature-cache miss.
func (tr *trie) classify(img []wordVal, sc *scratch, checked observer.CheckedRecoverFunc) (*outcome, error) {
	if o, ok := tr.lookup(img, sc); ok {
		return o, nil
	}
	out := execClassify(tr.words, img, sc, checked)
	return tr.insert(sc.seq, out)
}

// execClassify materializes img, runs checked recovery once with read
// recording, and classifies the state, reading the strict verdict off
// the same result by observer's strict rule (observer.NotClean, which
// observer.Strict applies). The reads are left in sc.seq.
func execClassify(words *wordTable, img []wordVal, sc *scratch, checked observer.CheckedRecoverFunc) outcome {
	im := memory.NewImage()
	for _, wv := range img {
		im.WriteWord(words.addrs[wv.slot], wv.val)
	}
	// Words the recovery itself wrote (salvage repairs) or already
	// read: later reads of those are implied by earlier pristine reads
	// and are excluded from the signature.
	if sc.implied == nil {
		sc.implied = make(map[memory.Addr]struct{})
	}
	clear(sc.implied)
	sc.seq = sc.seq[:0]
	im.Observe(func(a memory.Addr, v uint64) {
		if _, ok := sc.implied[a]; !ok {
			sc.implied[a] = struct{}{}
			sc.seq = append(sc.seq, readEv{addr: a, val: v})
		}
	}, func(a memory.Addr) {
		sc.implied[a] = struct{}{}
	})
	rep, cErr := checked(im)
	im.Observe(nil, nil)
	sErr := observer.NotClean("recovery", rep, cErr)

	out := outcome{}
	switch {
	case cErr != nil:
		out.class = ClassHazard
	case sErr != nil:
		out.class = ClassDetected
	default:
		out.class = ClassRecovered
	}
	if sErr != nil {
		out.strictErr = sErr.Error()
	}
	if cErr != nil {
		out.checkedErr = cErr.Error()
	}
	return out
}

// classifyChunk is the number of images one classification sweep item
// handles.
const classifyChunk = 256

// classifyAll classifies every distinct reachable image through a trie
// over store, tallies classes in discovery order, and minimizes the
// first hazardous image's representative cut.
func classifyAll(g *graph.Graph, sp *space, store *trieStore, checked observer.CheckedRecoverFunc, cfg Config, res *Result) error {
	tr := &trie{words: sp.words, store: store}
	outs := make([]*outcome, len(sp.finals))
	scfg := cfg.Sweep
	scfg.Name = "exhaustive-classify"
	// Each sweep item classifies a chunk of images into its own slots
	// of outs, with one scratch buffer.
	chunks := (len(sp.finals) + classifyChunk - 1) / classifyChunk
	err := sweep.Run(chunks, scfg, func(c int) (struct{}, error) {
		sc := tr.scratch()
		for i := c * classifyChunk; i < min((c+1)*classifyChunk, len(sp.finals)); i++ {
			o, err := tr.classify(sp.finals[i].image(sp.words, &sc.img), sc, checked)
			if err != nil {
				return struct{}{}, err
			}
			outs[i] = o
		}
		tr.done(sc)
		return struct{}{}, nil
	}, nil)
	if err != nil {
		return err
	}
	firstHazard := -1
	for i, o := range outs {
		switch o.class {
		case ClassRecovered:
			res.Recovered++
		case ClassDetected:
			res.Detected++
		case ClassHazard:
			res.Hazards++
			if firstHazard < 0 {
				firstHazard = i
			}
		}
	}
	res.Signatures = tr.leaves
	if firstHazard >= 0 {
		ce, err := minimize(g, sp.finals[firstHazard], outs[firstHazard], tr, checked, cfg)
		if err != nil {
			return err
		}
		res.Counterexample = ce
	}
	return nil
}

// minimize greedily shrinks a hazardous cut: walking included nodes
// from the latest down, it drops each node (with its dependents, to
// keep the cut downward-closed) whenever the resulting state still
// classifies as a hazard.
func minimize(g *graph.Graph, f final, hazard *outcome, tr *trie, checked observer.CheckedRecoverFunc, cfg Config) (*Counterexample, error) {
	n := g.Len()
	cut := f.cut(n)
	orig := cut.Size()
	cur := hazard
	budget := minimizeBudget
	sc := tr.scratch()
	defer tr.done(sc)
	for i := n - 1; i >= 0 && budget > 0; i-- {
		if !cut.Included[i] {
			continue
		}
		cand := graph.Cut{Included: append([]bool(nil), cut.Included...)}
		cand.Included[i] = false
		g.DropDependents(cand, graph.NodeID(i))
		budget--
		o, err := tr.classify(imgOfCut(tr.words, cand), sc, checked)
		if err != nil {
			return nil, err
		}
		if o.class == ClassHazard {
			cut, cur = cand, o
		}
	}
	ce := &Counterexample{
		Cut:           cut,
		Included:      cut.Size(),
		MinimizedFrom: orig,
		StrictErr:     cur.strictErr,
		CheckedErr:    cur.checkedErr,
	}
	if len(cfg.ReproParams) > 0 {
		s := fault.Scenario{Params: cfg.ReproParams, Cut: cut}
		ce.Repro = s.Repro()
	}
	return ce, nil
}
