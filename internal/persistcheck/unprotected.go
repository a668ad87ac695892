package persistcheck

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/intervals"
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
	// Protected extents collapse into an interval set (adjacent and
	// overlapping extents merge), so coverage is one ordered query —
	// and a word jointly covered by two abutting frames correctly
	// counts as protected, which the old single-extent scan missed.
	prot := intervals.NewSet[memory.Addr]()
	for _, x := range ann.Protected {
		prot.Insert(x.Addr, x.Addr+memory.Addr(x.Size))
	}
	covered := func(a memory.Addr, size uint64) bool {
		return prot.Covers(a, a+memory.Addr(size))
	}
	report := func(name string, a memory.Addr, size uint64) {
		cut := g.Full()
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
		r.add(Finding{
			Kind:     UnprotectedMetadata,
			Severity: Robustness,
			Msg: fmt.Sprintf("recovery metadata %q at %#x/%d has no integrity protection (CRC frame, shadow, or durable word)",
				name, uint64(a), size),
			Site:     cfg.site(a),
			WitnessA: -1,
			WitnessB: -1,
			Cut:      cut,
			Repro:    repro,
		}, cfg.limit())
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
