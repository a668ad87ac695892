package core

import (
	"math/rand"
	"testing"

	"repro/internal/memory"
)

func randCtx(rng *rand.Rand) Ctx {
	lvl := int64(rng.Intn(10))
	if lvl == 0 {
		return zeroCtx
	}
	var src memory.BlockID
	if rng.Intn(4) == 0 {
		src = memory.NoBlock
	} else {
		src = memory.BlockID(rng.Intn(4))
	}
	c := Ctx{Lvl: lvl, Src: src}
	if src == memory.NoBlock {
		c.Lvl2 = lvl
	} else {
		c.Lvl2 = int64(rng.Intn(int(lvl + 1)))
	}
	return c
}

func TestZeroCtxValid(t *testing.T) {
	if !zeroCtx.valid() {
		t.Fatal("zeroCtx invalid")
	}
	if zeroCtx.Lvl != 0 || zeroCtx.Excluding(3) != 0 {
		t.Fatal("zeroCtx should contribute nothing")
	}
}

func TestPersistCtx(t *testing.T) {
	c := persistCtx(5, 2, 0)
	if !c.valid() || c.Lvl != 5 || c.Src != 2 || c.Lvl2 != 0 {
		t.Fatalf("persistCtx wrong: %+v", c)
	}
	if c.Excluding(2) != 0 {
		t.Fatal("excluding own block should drop the level")
	}
	if c.Excluding(3) != 5 {
		t.Fatal("excluding another block should keep the level")
	}
}

func TestMergeBasics(t *testing.T) {
	a := persistCtx(5, 1, 0)
	b := persistCtx(3, 2, 0)
	m := merge(a, b)
	if m.Lvl != 5 || m.Src != 1 || m.Lvl2 != 3 {
		t.Fatalf("merge = %+v", m)
	}
	if m.Excluding(1) != 3 {
		t.Fatalf("Excluding(1) = %d", m.Excluding(1))
	}
	if m.Excluding(2) != 5 {
		t.Fatalf("Excluding(2) = %d", m.Excluding(2))
	}
}

func TestMergeTieDistinctSources(t *testing.T) {
	m := merge(persistCtx(4, 1, 0), persistCtx(4, 2, 0))
	if m.Src != memory.NoBlock || m.Lvl != 4 || m.Lvl2 != 4 {
		t.Fatalf("tie merge = %+v", m)
	}
	if m.Excluding(1) != 4 || m.Excluding(2) != 4 {
		t.Fatal("tie must not be excludable by either source")
	}
}

func TestMergeTieSameSource(t *testing.T) {
	m := merge(Ctx{Lvl: 4, Src: 1, Lvl2: 2}, Ctx{Lvl: 4, Src: 1, Lvl2: 3})
	if m.Src != 1 || m.Lvl != 4 || m.Lvl2 != 3 {
		t.Fatalf("same-source tie merge = %+v", m)
	}
}

func TestMergeWithZero(t *testing.T) {
	a := Ctx{Lvl: 7, Src: 2, Lvl2: 1}
	if merge(a, zeroCtx) != a || merge(zeroCtx, a) != a {
		t.Fatal("merge with zero should be identity")
	}
}

func TestMergeProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 20000; i++ {
		a, b := randCtx(rng), randCtx(rng)
		m := merge(a, b)
		if !m.valid() {
			t.Fatalf("merge(%+v,%+v) = %+v invalid", a, b, m)
		}
		// Commutativity.
		if m != merge(b, a) {
			t.Fatalf("merge not commutative for %+v, %+v", a, b)
		}
		// Lvl is the max.
		want := a.Lvl
		if b.Lvl > want {
			want = b.Lvl
		}
		if m.Lvl != want {
			t.Fatalf("merge Lvl = %d, want %d", m.Lvl, want)
		}
		// Soundness: Excluding never drops a constraint either input
		// held — for every block, merged exclusion >= each input's.
		for blk := memory.BlockID(0); blk < 5; blk++ {
			if m.Excluding(blk) < a.Excluding(blk) || m.Excluding(blk) < b.Excluding(blk) {
				t.Fatalf("merge(%+v,%+v).Excluding(%d) = %d under-approximates (%d, %d)",
					a, b, blk, m.Excluding(blk), a.Excluding(blk), b.Excluding(blk))
			}
		}
		// Idempotence.
		if merge(a, a) != a {
			t.Fatalf("merge not idempotent for %+v", a)
		}
	}
}

func TestMergeAll(t *testing.T) {
	if mergeAll() != zeroCtx {
		t.Fatal("empty mergeAll should be zero")
	}
	m := mergeAll(persistCtx(1, 0, 0), persistCtx(3, 1, 0), persistCtx(2, 2, 0))
	if m.Lvl != 3 || m.Src != 1 || m.Lvl2 != 2 {
		t.Fatalf("mergeAll = %+v", m)
	}
}

// mergeAll folds merge over any number of contexts.
func mergeAll(cs ...Ctx) Ctx {
	out := zeroCtx
	for _, c := range cs {
		out = merge(out, c)
	}
	return out
}
