package memory

import (
	"runtime"
	"slices"
	"testing"
)

// TestPages checks the page table's three operations: Get of an absent
// page is nil, Add makes a page that Get then returns, and Each visits
// every page in ascending order across node and top-slice boundaries,
// up to page numbers past 2^32.
func TestPages(t *testing.T) {
	var pt Pages[[4]uint64]
	if pt.Get(0) != nil || pt.Get(1<<32) != nil {
		t.Fatal("empty table returned a page")
	}
	nums := []uint64{
		1<<32 + 5, 0, 63, 64, 4095, 4096, 1<<18 - 1, 1 << 18,
		1<<32 - 1, 1 << 32, 7, 1<<35 + 1,
	}
	for i, n := range nums {
		pt.Add(n)[0] = uint64(i) + 1
	}
	for i, n := range nums {
		if pg := pt.Get(n); pg == nil || pg[0] != uint64(i)+1 {
			t.Fatalf("page %#x: got %v, want a page tagged %d", n, pg, i+1)
		}
	}
	for _, n := range []uint64{1, 62, 65, 4097, 1<<32 + 1, 1 << 33, 1<<35 + 2, 1 << 40} {
		if pt.Get(n) != nil {
			t.Fatalf("page %#x: absent page returned non-nil", n)
		}
	}
	var got []uint64
	pt.Each(func(n uint64, pg *[4]uint64) {
		if pt.Get(n) != pg {
			t.Fatalf("Each page %#x is not Get's", n)
		}
		got = append(got, n)
	})
	want := slices.Clone(nums)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("Each visited %#x, want %#x", got, want)
	}
}

// TestPagesFarIndexCost bounds the index storage a far page costs: one
// page at each end of a 2^32-page space allocates the two pages plus
// at most 256 KiB of top slice and nodes.
func TestPagesFarIndexCost(t *testing.T) {
	var pt Pages[[512]uint64]
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pt.Add(0)
	pt.Add(1<<32 - 1)
	runtime.ReadMemStats(&after)
	const pageBytes = 512 * 8
	if idx := after.TotalAlloc - before.TotalAlloc - 2*pageBytes; idx > 256<<10 {
		t.Fatalf("index allocated %d bytes for two pages, want <= %d", idx, 256<<10)
	}
	if pt.Get(0) == nil || pt.Get(1<<32-1) == nil {
		t.Fatal("pages not found after Add")
	}
}

// TestPagesSlabs pins slab allocation: 4096 fresh 64-byte pages cost
// tens of allocations, not one each, and little storage beyond the
// pages themselves; each page is zeroed and distinct from the others.
func TestPagesSlabs(t *testing.T) {
	const pages = 4096
	var pt Pages[[8]uint64]
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for n := uint64(0); n < pages; n++ {
		pg := pt.Add(n)
		if *pg != ([8]uint64{}) {
			t.Fatalf("page %d not zeroed: %v", n, *pg)
		}
		pg[7] = n + 1
	}
	runtime.ReadMemStats(&after)
	if allocs := after.Mallocs - before.Mallocs; allocs > 128 {
		t.Errorf("%d pages took %d allocations, want <= 128", pages, allocs)
	}
	// Beyond the pages: 66 index nodes of 512 bytes and at most one
	// slab's unused rest.
	if extra := after.TotalAlloc - before.TotalAlloc - pages*64; extra > 64<<10 {
		t.Errorf("%d pages took %d bytes beyond their own, want <= %d", pages, extra, 64<<10)
	}
	for n := uint64(0); n < pages; n++ {
		if pg := pt.Get(n); pg[7] != n+1 {
			t.Fatalf("page %d reads tag %d, want %d", n, pg[7], n+1)
		}
	}
}
