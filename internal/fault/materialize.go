package fault

import (
	"slices"

	"repro/internal/graph"
	"repro/internal/memory"
)

// Materialize builds the post-crash NVRAM image of cut c perturbed by
// plan p. It mirrors graph.Materialize — persists applied in trace
// order — with the device faults layered in:
//
//   - Drop excludes the node; Torn applies only the Mask-selected
//     bytes of its write. Both cascade: any included node depending on
//     a dropped or torn node is excluded too, so hand-edited plans
//     (e.g. a tweaked repro string) still yield reachable device
//     states — a persist's dependents cannot have reached media before
//     it did. Later faults override earlier ones on the same node.
//   - Retry faults do not change the image (the write eventually
//     succeeded); they only matter to nvram timing accounting.
//   - Bit flips are applied after all writes; FlipDetected also
//     poisons the word.
//
// With an empty plan, Materialize(g, c, Plan{}) equals
// g.Materialize(c).
func Materialize(g *graph.Graph, c graph.Cut, p Plan) *memory.Image {
	drop := make(map[graph.NodeID]bool)
	torn := make(map[graph.NodeID]uint8)
	for _, f := range p.Faults {
		if int(f.Node) >= g.Len() {
			continue // a hand-edited plan naming no persist of g
		}
		switch f.Kind {
		case Drop:
			drop[f.Node] = true
			delete(torn, f.Node)
		case Torn:
			torn[f.Node] = f.Mask
			delete(drop, f.Node)
		}
	}

	// Dropped persists leave the cut; dependents of a dropped or torn
	// persist leave it with them.
	keep := graph.Cut{Included: slices.Clone(c.Included)}
	roots := make([]graph.NodeID, 0, len(drop)+len(torn))
	for id := range drop {
		keep.Included[id] = false
		roots = append(roots, id)
	}
	for id := range torn {
		roots = append(roots, id)
	}
	g.DropDependents(keep, roots...)

	im := memory.NewImage()
	for i, n := range g.Nodes {
		if !keep.Included[i] || !n.Event.Kind.IsAccess() {
			continue
		}
		var b [memory.WordSize]byte
		for j := 0; j < int(n.Event.Size); j++ {
			b[j] = byte(n.Event.Val >> (8 * j))
		}
		if mask, isTorn := torn[graph.NodeID(i)]; isTorn {
			for j := 0; j < int(n.Event.Size); j++ {
				if mask&(1<<uint(j)) == 0 {
					continue
				}
				im.WriteBytes(n.Event.Addr+memory.Addr(j), b[j:j+1])
			}
			continue
		}
		im.WriteBytes(n.Event.Addr, b[:n.Event.Size])
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
