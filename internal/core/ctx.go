package core

import "repro/internal/memory"

// Ctx is a persist dependence context: a compact summary of the set of
// persists that some program point is ordered after in persistent
// memory order. The timing simulation only needs two questions
// answered:
//
//  1. What is the latest level this point depends on? (Lvl)
//  2. What is the latest level excluding persists that coalesced into
//     a given atomic persist block's open persist? (Excluding)
//
// Question 2 decides persist coalescing (§3, "persist coalescing"): a
// persist may merge into the open persist of its atomic block only if
// everything else it depends on persists strictly earlier. To answer it
// without materializing dependence sets, Ctx tracks the atomic block
// that sourced the maximum level (Src) and the maximum level
// contributed by everything else (Lvl2). The summary is conservative:
// Excluding never underestimates, so coalescing is never unsound; at
// worst a legal coalesce is missed when several sources tie.
//
// Levels are persist critical-path depths: a persist at level L
// completes no earlier than L persist-latencies after the start of
// execution. Level 0 means "no dependence".
type Ctx struct {
	// Lvl is the maximum dependence level.
	Lvl int64
	// Src is the atomic persist block whose persist provides Lvl, or
	// memory.NoBlock when no single block does (ties, merges).
	Src memory.BlockID
	// Lvl2 is the maximum level among contributions not from Src.
	// Invariant: Lvl2 <= Lvl, and Src == memory.NoBlock implies
	// Lvl2 == Lvl.
	Lvl2 int64
	// id is the context's provenance: the placed persist (0-based
	// placement order) that supplies Lvl, or -1 when none does. A
	// non-negative id always names a persist whose level equals Lvl,
	// so a probe can reconstruct the exact constraint chain behind the
	// scalar critical path — and verifying that reconstruction against
	// Result.CriticalPath cross-checks the timing model.
	id int64
}

// zeroCtx is the empty dependence context.
var zeroCtx = Ctx{Src: memory.NoBlock, id: -1}

// persistCtx returns the context contributed by placed persist id at
// level lvl in atomic block src. Its Lvl2 is 0 because a persist's own
// dependences are strictly below its level by construction.
func persistCtx(lvl int64, src memory.BlockID, id int64) Ctx {
	return Ctx{Lvl: lvl, Src: src, id: id}
}

// merge combines two dependence contexts. It is commutative and
// order-insensitive in the properties that matter (see TestCtxMerge*).
// The provenance id comes from the context supplying the higher level,
// preferring a known id, then a's, on ties.
func merge(a, b Ctx) Ctx {
	if a.Lvl < b.Lvl || (a.Lvl == b.Lvl && a.id < 0) {
		a, b = b, a
	}
	// a.Lvl >= b.Lvl from here on, and a supplies the provenance.
	if a.Lvl == b.Lvl && a.Src != b.Src {
		// Two distinct top sources at the same level: no unique source.
		return Ctx{Lvl: a.Lvl, Src: memory.NoBlock, Lvl2: a.Lvl, id: a.id}
	}
	other := b.Lvl
	if b.Src == a.Src {
		other = b.Lvl2
	}
	a.Lvl2 = max(a.Lvl2, other)
	return a
}

// Excluding returns the maximum dependence level ignoring contributions
// sourced from atomic block b. It may overestimate (safe) but never
// underestimates.
func (c Ctx) Excluding(b memory.BlockID) int64 {
	if c.Src == b && c.Src != memory.NoBlock {
		return c.Lvl2
	}
	return c.Lvl
}

// valid reports whether the context's invariants hold (tests only).
func (c Ctx) valid() bool {
	if c.Lvl2 > c.Lvl {
		return false
	}
	if c.Src == memory.NoBlock && c.Lvl2 != c.Lvl {
		return false
	}
	return c.Lvl >= 0 && c.Lvl2 >= 0
}
