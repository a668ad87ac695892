package persistcheck

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/memory"
)

// Unprotected-metadata lint. The other analyses verify *ordering*: the
// model cannot expose a publication without its payload. This one
// verifies *media robustness*: every word recovery dereferences — the
// declared publication words and order-after regions — should sit
// inside a Protected extent (a CRC frame, shadow checksum, or durable
// word; internal/durable), because a silent bit flip in an unprotected
// pointer re-frames the structure and recovery returns wrong data with
// a clean report. Findings are Robustness severity: the plain formats
// are ordering-correct by design and stay green under the hazard
// gates; `-require-integrity` turns these into failures.
//
// Each finding carries a repro whose cut is the full persist set (the
// quiescent post-run state — no ordering divergence needed) and whose
// plan flips one mid-byte bit in the flagged word: replaying it
// demonstrates the silent corruption directly.
func checkUnprotected(g *graph.Graph, ann Annotations, cfg Config, r *Report) {
	if len(ann.Pubs) == 0 && len(ann.OrderAfter) == 0 {
		return
	}
	// Protected extents are sorted and merged once (abutting and
	// overlapping extents join), so coverage is one binary search and a
	// word jointly covered by two abutting frames counts as protected.
	prot := mergeExtents(ann.Protected)
	covered := func(a memory.Addr, size uint64) bool {
		if size == 0 {
			return true
		}
		// The last merged extent starting at or below a is the only one
		// that can cover it.
		i, found := slices.BinarySearchFunc(prot, a, func(x Extent, a memory.Addr) int { return cmp.Compare(x.Addr, a) })
		if !found {
			i--
		}
		return i >= 0 && uint64(a-prot[i].Addr)+size <= prot[i].Size
	}
	// Findings past the storage limit are only counted: their repro is
	// never built. Every stored finding shares one full cut.
	var cut graph.Cut
	report := func(name string, a memory.Addr, size uint64) {
		if !r.keep(UnprotectedMetadata, cfg.limit()) {
			return
		}
		if cut.Included == nil {
			cut = g.Full()
		}
		repro := ""
		if len(cfg.ReproParams) > 0 {
			s := fault.Scenario{
				Params: cfg.ReproParams,
				Cut:    cut,
				Plan: fault.Plan{Faults: []fault.Fault{{
					Kind: fault.FlipSilent,
					Addr: a,
					Bit:  6,
				}}},
			}
			repro = s.Repro()
		}
		r.Findings = append(r.Findings, Finding{
			Kind:     UnprotectedMetadata,
			Severity: Robustness,
			Msg: fmt.Sprintf("recovery metadata %q at %#x/%d has no integrity protection (CRC frame, shadow, or durable word)",
				name, uint64(a), size),
			Site:     cfg.site(a),
			WitnessA: -1,
			WitnessB: -1,
			Cut:      cut,
			Repro:    repro,
		})
	}
	seen := map[memory.Addr]bool{}
	for _, pub := range ann.Pubs {
		if seen[pub.Word] {
			continue
		}
		seen[pub.Word] = true
		if !covered(pub.Word, wordBytes) {
			report(pub.Name, pub.Word, wordBytes)
		}
	}
	for _, reg := range ann.OrderAfter {
		if seen[reg.Addr] {
			continue
		}
		seen[reg.Addr] = true
		if !covered(reg.Addr, reg.Size) {
			report(reg.Name, reg.Addr, reg.Size)
		}
	}
}

// mergeExtents returns a sorted copy of xs with empty extents dropped
// and abutting or overlapping extents joined, so the result is
// disjoint and ascending.
func mergeExtents(xs []Extent) []Extent {
	xs = slices.Clone(xs)
	slices.SortFunc(xs, func(a, b Extent) int { return cmp.Compare(a.Addr, b.Addr) })
	out := xs[:0]
	for _, x := range xs {
		if x.Size == 0 {
			continue
		}
		if n := len(out); n > 0 && x.Addr <= out[n-1].Addr+memory.Addr(out[n-1].Size) {
			end := max(out[n-1].Addr+memory.Addr(out[n-1].Size), x.Addr+memory.Addr(x.Size))
			out[n-1].Size = uint64(end - out[n-1].Addr)
			continue
		}
		out = append(out, x)
	}
	return out
}
