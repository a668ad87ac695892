package graph

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// The two-form frontier sets of frontier.go, checked against plain
// sorted id slices: every operation on every combination of forms must
// give the reference's ids, results must take the form the size rule
// picks, and published inputs must come out unchanged.

// refUnion and refMissing are the reference operations on sorted ids.
func refUnion(a, c []NodeID) []NodeID {
	out := slices.Concat(a, c)
	slices.Sort(out)
	return slices.Compact(out)
}

func refMissing(v, s []NodeID) int {
	n := 0
	for _, id := range s {
		if _, ok := slices.BinarySearch(v, id); !ok {
			n++
		}
	}
	return n
}

// idsOf lists v's ids in ascending order, reading the dense form's
// bits one at a time.
func idsOf(v nodeVec) []NodeID {
	if !v.dense() {
		return slices.Clone(v)
	}
	var ids []NodeID
	for k, w := range v.words() {
		for b := 0; b < 32; b++ {
			if uint32(w)>>b&1 == 1 {
				ids = append(ids, NodeID((v.lo()+k)*32+b))
			}
		}
	}
	return ids
}

// mkVec stores the sorted ids in the requested form, whatever the size
// rule says.
func mkVec(ids []NodeID, dense bool) nodeVec {
	if len(ids) == 0 || !dense {
		return slices.Clone(nodeVec(ids))
	}
	lo, hi := int(ids[0]>>wordShift), int(ids[len(ids)-1]>>wordShift)
	v := make(nodeVec, denseHdr+hi-lo+1)
	v[0], v[1] = ^NodeID(lo), NodeID(len(ids))
	orInto(v, nodeVec(ids))
	return v
}

// canon stores the sorted ids in the form the size rule picks.
func canon(ids []NodeID) nodeVec {
	if len(ids) == 0 {
		return nil
	}
	return mkVec(ids, denseFits(len(ids), int(ids[0]>>wordShift), int(ids[len(ids)-1]>>wordShift)))
}

// checkVec fails unless v is a well-formed vec holding want. With rule
// set, v must also take the form the size rule picks.
func checkVec(t *testing.T, ctx string, v nodeVec, want []NodeID, rule bool) {
	t.Helper()
	if got := idsOf(v); !slices.Equal(got, want) {
		t.Fatalf("%s: ids %v, want %v", ctx, got, want)
	}
	if v.size() != len(want) {
		t.Fatalf("%s: size %d, want %d", ctx, v.size(), len(want))
	}
	if !v.dense() {
		if !slices.IsSorted(v) || len(slices.Compact(slices.Clone(v))) != len(v) {
			t.Fatalf("%s: sparse vec %v is not strictly ascending", ctx, v)
		}
	} else {
		w := v.words()
		if len(w) == 0 || w[0] == 0 || w[len(w)-1] == 0 {
			t.Fatalf("%s: dense window not trimmed: %v", ctx, w)
		}
		n := 0
		for _, x := range w {
			n += bits.OnesCount32(uint32(x))
		}
		if n != int(v[1]) {
			t.Fatalf("%s: dense count %d, bits %d", ctx, v[1], n)
		}
	}
	if rule && len(want) > 0 {
		lo, hi := int(want[0]>>wordShift), int(want[len(want)-1]>>wordShift)
		if fits := denseFits(len(want), lo, hi); v.dense() != fits {
			t.Fatalf("%s: %d ids over words %d..%d in the dense form is %v, rule says %v", ctx, len(want), lo, hi, v.dense(), fits)
		}
	}
}

// randIDs draws a sorted id set: empty, a singleton, or ids at one of
// several densities over a window starting at base.
func randIDs(rng *rand.Rand, base NodeID) []NodeID {
	switch rng.Intn(8) {
	case 0:
		return nil
	case 1:
		return []NodeID{base + NodeID(rng.Intn(100))}
	}
	span := 1 + rng.Intn(600)
	density := []float64{1.0 / 64, 1.0 / 32, 1.0 / 16, 0.25, 0.9, 1}[rng.Intn(6)]
	var ids []NodeID
	for i := 0; i < span; i++ {
		if rng.Float64() < density {
			ids = append(ids, base+NodeID(i))
		}
	}
	return ids
}

// randBase places a window near 0, near a shared origin (so windows
// overlap at positive and negative offsets), or far away.
func randBase(rng *rand.Rand) NodeID {
	switch rng.Intn(4) {
	case 0:
		return NodeID(rng.Intn(40))
	case 1:
		return 1<<30 + NodeID(rng.Intn(1<<12))
	default:
		return 1000 + NodeID(rng.Intn(700))
	}
}

func TestFrontierSetsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 3000; iter++ {
		aIDs, cIDs := randIDs(rng, randBase(rng)), randIDs(rng, randBase(rng))
		ctx := fmt.Sprintf("iter %d: a %v c %v", iter, aIDs, cIDs)

		// missing and the sorted merge on every combination of forms.
		want := refUnion(aIDs, cIDs)
		for _, ad := range []bool{false, true} {
			for _, cd := range []bool{false, true} {
				if got, want := missing(mkVec(aIDs, ad), mkVec(cIDs, cd)), refMissing(aIDs, cIDs); got != want {
					t.Fatalf("%s: missing (dense %v, %v) = %d, want %d", ctx, ad, cd, got, want)
				}
				if got := mergeAny(nil, mkVec(aIDs, ad), mkVec(cIDs, cd)); !slices.Equal(got, want) {
					t.Fatalf("%s: mergeAny (dense %v, %v) = %v, want %v", ctx, ad, cd, got, want)
				}
			}
		}

		a, c := canon(aIDs), canon(cIDs)
		checkVec(t, ctx+" canon a", a, aIDs, true)
		if len(want) > 0 {
			checkVec(t, ctx+" unionInto", unionInto(nil, a, c, len(want)), want, true)
			// Into scratch storage that already holds something.
			scratch := make(nodeVec, 3, 700)
			checkVec(t, ctx+" unionInto scratch", unionInto(scratch, a, c, len(want)), want, true)
		}

		// Published unions leave their inputs alone and share an input
		// that already holds the other.
		b := &builder{}
		b.facts.reset(0)
		va, vc := b.fresh(a, 0), b.fresh(c, 0)
		u := b.union(va, vc)
		checkVec(t, ctx+" union", u.ids, want, true)
		checkVec(t, ctx+" union input a", va.ids, aIDs, true)
		checkVec(t, ctx+" union input c", vc.ids, cIDs, true)
		switch {
		case len(want) == len(aIDs) && u.ver != va.ver:
			t.Fatalf("%s: union adding nothing drew a version", ctx)
		case len(want) > len(aIDs) && len(aIDs) > 0 && (u.ver == va.ver || u.ver == vc.ver):
			t.Fatalf("%s: union that changed the set kept a version", ctx)
		}
		p := b.publish(va, vc)
		checkVec(t, ctx+" publish", p.ids, want, true)

		// A thread absorbs into its own storage, in place or not.
		dst := b.fresh(slices.Clone(a), 0)
		before := dst.ver
		b.absorb(&dst, vc)
		checkVec(t, ctx+" absorb", dst.ids, want, true)
		checkVec(t, ctx+" absorb src", vc.ids, cIDs, true)
		if (dst.ver != before) != (len(want) > len(aIDs)) {
			t.Fatalf("%s: absorb version %d → %d for %d → %d ids", ctx, before, dst.ver, len(aIDs), len(want))
		}
		if b.missingFrom(dst, vc) != 0 {
			t.Fatalf("%s: absorbed set still misses ids", ctx)
		}

		// Scrubbing a dense set: remove a random share of its ids,
		// sometimes all of them. The set moves down by whole words, a
		// move that keeps its form, so the mark array stays small.
		if a.dense() {
			off := aIDs[0] &^ (1<<wordShift - 1)
			ids := make([]NodeID, len(aIDs))
			for i, id := range aIDs {
				ids[i] = id - off
			}
			keep := rng.Float64()
			if rng.Intn(5) == 0 {
				keep = 0
			}
			var sources, left []NodeID
			for _, id := range ids {
				if rng.Float64() < keep {
					left = append(left, id)
				} else {
					sources = append(sources, id)
				}
			}
			// Marked ids outside the set are ignored.
			sources = append(sources, ids[len(ids)-1]+100, 0)
			if slices.Contains(ids, 0) {
				left = slices.DeleteFunc(left, func(id NodeID) bool { return id == 0 })
			}
			// A scrub keeps a dense set only while it pays.
			checkVec(t, ctx+" scrub", scrubbed(b, canon(ids), sources...), left, true)
		}
	}
}

// scrubbed scrubs ids from v as a persist with those sources does:
// it marks them with a fresh stamp, then scrubs.
func scrubbed(b *builder, v nodeVec, ids ...NodeID) nodeVec {
	top := slices.Max(ids)
	if v.size() > 0 {
		_, hi := v.span()
		top = max(top, NodeID(hi<<wordShift+(1<<wordShift-1)))
	}
	b.mark, b.stamp = make([]uint32, top+1), 1
	for _, id := range ids {
		b.mark[id] = b.stamp
	}
	return b.scrub(v, nil)
}

// TestFrontierDensityThreshold pins the rule at its edge: n ids over W
// words are dense from n = W + 2 (two header elements plus W words are
// no more than n ids), and a union or scrub crossing it changes form.
func TestFrontierDensityThreshold(t *testing.T) {
	// Three words (ids 64..159) with W+1 = 4 ids: sparse; with 5: dense.
	thin := []NodeID{64, 100, 130, 159}
	if v := canon(thin); v.dense() {
		t.Fatalf("%v: dense below the threshold", thin)
	}
	at := []NodeID{64, 100, 120, 130, 159}
	if v := canon(at); !v.dense() {
		t.Fatalf("%v: sparse at the threshold", at)
	}
	// Sparse ∪ sparse crossing the threshold builds a dense set.
	b := &builder{}
	b.facts.reset(0)
	sp := b.fresh(canon(thin), 0)
	u := b.union(sp, b.fresh(canon([]NodeID{120}), 0))
	checkVec(t, "sparse→dense union", u.ids, at, true)
	if !u.ids.dense() {
		t.Fatal("union at the threshold stayed sparse")
	}
	// A scrub of one id drops it back to sparse.
	s := scrubbed(b, slices.Clone(u.ids), 120)
	checkVec(t, "dense→sparse scrub", s, thin, true)
	// A dense set whose union reaches far away becomes sparse.
	far := b.union(u, b.fresh(canon([]NodeID{1 << 20}), 0))
	checkVec(t, "dense→sparse union", far.ids, append(slices.Clone(at), 1<<20), true)
	// Singletons and pairs are always sparse.
	for _, ids := range [][]NodeID{{0}, {31}, {1<<31 - 1}, {5, 6}} {
		if canon(ids).dense() {
			t.Fatalf("%v: dense", ids)
		}
	}
	// A scrub that empties a set leaves the empty vec.
	if e := scrubbed(b, slices.Clone(u.ids), 64, 100, 120, 130, 159); len(e) != 0 {
		t.Fatalf("emptied scrub left %v", e)
	}
}

// TestFrontierDenseIDsNearMax covers the highest node ids: the top
// word's last bit is the sign bit of its 32-bit element.
func TestFrontierDenseIDsNearMax(t *testing.T) {
	var ids []NodeID
	for id := NodeID(1<<31 - 64); id != 1<<31-1; id += 3 {
		ids = append(ids, id)
	}
	ids = append(ids, 1<<31-1)
	v := canon(ids)
	if !v.dense() {
		t.Fatal("expected a dense set")
	}
	checkVec(t, "near max", v, ids, true)
	if m := missing(v, nodeVec{1<<31 - 2, 1<<31 - 1}); m != 1 {
		t.Fatalf("missing = %d, want 1", m)
	}
}
