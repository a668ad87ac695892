package fault

import (
	"math/rand"

	"repro/internal/graph"
	"repro/internal/memory"
)

// GenConfig parameterizes random fault-plan generation. The zero value
// enables every fault kind with equal weight and at most 3 faults per
// scenario.
type GenConfig struct {
	// MaxFaults bounds the faults per plan; 0 means 3.
	MaxFaults int
	// Weights select the fault mix; all-zero means 1 each. A kind with
	// weight 0 (when any other is set) is never generated.
	TornWeight, DropWeight, RetryWeight, FlipDetectedWeight, FlipSilentWeight int
	// MaxAttempts bounds a Retry fault's failed attempts; 0 means 4.
	MaxAttempts int
}

func (c GenConfig) normalize() GenConfig {
	if c.MaxFaults <= 0 {
		c.MaxFaults = 3
	}
	if c.TornWeight == 0 && c.DropWeight == 0 && c.RetryWeight == 0 &&
		c.FlipDetectedWeight == 0 && c.FlipSilentWeight == 0 {
		c.TornWeight, c.DropWeight, c.RetryWeight = 1, 1, 1
		c.FlipDetectedWeight, c.FlipSilentWeight = 1, 1
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 4
	}
	return c
}

// GenPlan draws a random fault plan for one (cut, image) scenario. All
// randomness comes from rng — same rng state, same plan — so campaigns
// are fully reproducible from their seed. words is the image's written
// word set (bit-flip targets); torn and dropped persists target the
// cut's frontier only (see the package comment). Kinds with no legal
// target in this scenario are skipped; the plan may come back empty
// for degenerate cuts.
func GenPlan(rng *rand.Rand, g *graph.Graph, c graph.Cut, words []memory.Addr, cfg GenConfig) Plan {
	cfg = cfg.normalize()
	frontier := g.Frontier(c)
	var persists []graph.NodeID
	for i, n := range g.Nodes {
		if c.Included[i] && n.Event.Kind.IsAccess() {
			persists = append(persists, graph.NodeID(i))
		}
	}

	type cand struct {
		kind   Kind
		weight int
	}
	cands := []cand{
		{Torn, cfg.TornWeight},
		{Drop, cfg.DropWeight},
		{Retry, cfg.RetryWeight},
		{FlipDetected, cfg.FlipDetectedWeight},
		{FlipSilent, cfg.FlipSilentWeight},
	}
	total := 0
	for _, cd := range cands {
		total += cd.weight
	}
	if total == 0 {
		return Plan{}
	}
	pick := func() Kind {
		r := rng.Intn(total)
		for _, cd := range cands {
			if r < cd.weight {
				return cd.kind
			}
			r -= cd.weight
		}
		return cands[len(cands)-1].kind
	}

	var p Plan
	n := 1 + rng.Intn(cfg.MaxFaults)
	for i := 0; i < n; i++ {
		switch k := pick(); k {
		case Torn:
			if len(frontier) == 0 {
				continue
			}
			node := frontier[rng.Intn(len(frontier))]
			size := int(g.Nodes[node].Event.Size)
			full := uint8(1<<uint(size)) - 1
			// Drop at least one byte of the write, or the tear is a
			// no-op by construction.
			mask := uint8(rng.Intn(256)) & full
			if mask == full {
				mask &^= 1 << uint(rng.Intn(size))
			}
			p.Faults = append(p.Faults, Fault{Kind: Torn, Node: node, Mask: mask})
		case Drop:
			if len(frontier) == 0 {
				continue
			}
			p.Faults = append(p.Faults, Fault{Kind: Drop, Node: frontier[rng.Intn(len(frontier))]})
		case Retry:
			if len(persists) == 0 {
				continue
			}
			p.Faults = append(p.Faults, Fault{
				Kind:     Retry,
				Node:     persists[rng.Intn(len(persists))],
				Attempts: 1 + rng.Intn(cfg.MaxAttempts),
			})
		case FlipDetected, FlipSilent:
			if len(words) == 0 {
				continue
			}
			w := words[rng.Intn(len(words))]
			p.Faults = append(p.Faults, Fault{
				Kind: k,
				Addr: w + memory.Addr(rng.Intn(memory.WordSize)),
				Bit:  uint8(rng.Intn(8)),
			})
		}
	}
	return p
}
