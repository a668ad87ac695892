package bench

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/queue"
	"repro/internal/trace"
)

// cachedTrace fetches w's trace through c.Do, keyed by the workload —
// the lookup workload.Build makes.
func cachedTrace(c *TraceCache, w Workload) (*trace.Trace, error) {
	return c.Do(w, func() (*trace.Trace, error) { return Trace(w) })
}

func TestTraceCacheHitReturnsSameTrace(t *testing.T) {
	c := NewTraceCache(8)
	w := Workload{Design: queue.CWL, Policy: core.PolicyEpoch, Threads: 2, Inserts: 50, Seed: 7}
	a, err := cachedTrace(c, w)
	if err != nil {
		t.Fatal(err)
	}
	b, err := cachedTrace(c, w)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("second lookup did not return the cached trace")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", s)
	}
	if s.EventsReplayed != int64(a.Len()) || s.EventsGenerated != int64(a.Len()) {
		t.Fatalf("event accounting %+v, trace has %d events", s, a.Len())
	}
	if got := s.ReplayRate(); got != 0.5 {
		t.Fatalf("ReplayRate = %v, want 0.5", got)
	}
}

// Replayed-from-cache simulation must be byte-identical to streaming the
// execution straight into the simulator, for every model — the
// equivalence the whole trace-once design rests on.
func TestSimulateCachedMatchesStreaming(t *testing.T) {
	c := NewTraceCache(16)
	for _, w := range []Workload{
		{Design: queue.CWL, Policy: core.PolicyEpoch, Threads: 2, Inserts: 60, Seed: 3},
		{Design: queue.TwoLock, Policy: core.PolicyStrand, Threads: 3, Inserts: 40, Seed: 9},
	} {
		for _, m := range core.Models {
			p := core.Params{Model: m, TrackWorkPath: true}
			want, err := Simulate(w, p)
			if err != nil {
				t.Fatal(err)
			}
			got, err := SimulateCached(c, w, p)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%v/%v: replayed result differs from streamed\nstream: %+v\nreplay: %+v", w, m, want, got)
			}
		}
	}
}

func TestTraceCacheSingleflight(t *testing.T) {
	c := NewTraceCache(8)
	w := Workload{Design: queue.CWL, Policy: core.PolicyStrict, Threads: 2, Inserts: 80, Seed: 11}
	const n = 16
	got := make([]*trace.Trace, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tr, err := cachedTrace(c, w)
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = tr
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if got[i] != got[0] {
			t.Fatalf("goroutine %d got a different trace", i)
		}
	}
	s := c.Stats()
	if s.Misses != 1 || s.Hits != n-1 {
		t.Fatalf("stats = %+v, want 1 miss / %d hits", s, n-1)
	}
}

func TestTraceCacheEviction(t *testing.T) {
	c := NewTraceCache(2)
	mk := func(seed int64) Workload {
		return Workload{Design: queue.CWL, Policy: core.PolicyEpoch, Threads: 1, Inserts: 20, Seed: seed}
	}
	for seed := int64(1); seed <= 3; seed++ {
		if _, err := cachedTrace(c, mk(seed)); err != nil {
			t.Fatal(err)
		}
	}
	s := c.Stats()
	if s.Evictions != 1 || s.Entries != 2 {
		t.Fatalf("stats = %+v, want 1 eviction / 2 entries", s)
	}
	// Seed 1 was least recently used; asking again must regenerate.
	if _, err := cachedTrace(c, mk(1)); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Misses != 4 || s.Hits != 0 {
		t.Fatalf("stats after re-request = %+v, want 4 misses", s)
	}
	// Seed 3 stayed resident.
	if _, err := cachedTrace(c, mk(3)); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Hits != 1 {
		t.Fatalf("stats = %+v, want resident seed-3 hit", s)
	}
}

// TestTraceCacheEventBudget pins the resident-event bound: once the
// cache holds more events than the budget, least-recently-used traces
// are evicted even though the entry count is far under max, and
// unescaped traces (pure SimulateCached traffic) are pool-Released
// while escaped ones keep their events for the caller.
func TestTraceCacheEventBudget(t *testing.T) {
	c := NewTraceCache(64)
	mk := func(seed int64) Workload {
		return Workload{Design: queue.CWL, Policy: core.PolicyEpoch, Threads: 1, Inserts: 30, Seed: seed}
	}
	// Escaped: the caller holds this trace across later evictions.
	held, err := cachedTrace(c, mk(100))
	if err != nil {
		t.Fatal(err)
	}
	heldLen := held.Len()
	c.SetEventBudget(int64(heldLen) + 1) // room for ~one trace
	p := core.Params{Model: core.Epoch}
	want, err := Simulate(mk(1), p)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 4; seed++ {
		if _, err := SimulateCached(c, mk(seed), p); err != nil {
			t.Fatal(err)
		}
	}
	s := c.Stats()
	if s.Evictions == 0 {
		t.Fatalf("stats = %+v, want budget-driven evictions", s)
	}
	if s.Resident > int64(heldLen)+1 {
		t.Fatalf("resident events %d exceed budget %d", s.Resident, heldLen+1)
	}
	// The escaped trace must survive eviction untouched (left to GC,
	// never pool-Released, which would zero its chunks).
	if held.Len() != heldLen {
		t.Fatalf("escaped trace shrank from %d to %d events after eviction", heldLen, held.Len())
	}
	// An evicted unescaped workload regenerates and still matches the
	// streamed result.
	got, err := SimulateCached(c, mk(1), p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("post-eviction regeneration differs from streamed result")
	}
}

// TestSimulateCachedConcurrent hammers one workload from many
// goroutines under a budget tight enough to force eviction churn — the
// refcount must keep every in-flight replay's trace alive (the race
// detector turns a release-during-replay into a hard failure).
func TestSimulateCachedConcurrent(t *testing.T) {
	c := NewTraceCache(64)
	c.SetEventBudget(1) // evict everything as soon as pins drop
	w := Workload{Design: queue.CWL, Policy: core.PolicyEpoch, Threads: 2, Inserts: 40, Seed: 13}
	p := core.Params{Model: core.Epoch}
	want, err := Simulate(w, p)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 4; j++ {
				got, err := SimulateCached(c, w, p)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(want, got) {
					t.Error("concurrent cached result differs from streamed")
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestTraceCacheCachesErrors(t *testing.T) {
	c := NewTraceCache(8)
	calls := 0
	boom := errors.New("boom")
	gen := func() (*trace.Trace, error) { calls++; return nil, boom }
	type key struct{ k int }
	for i := 0; i < 3; i++ {
		if _, err := c.Do(key{1}, gen); err != boom {
			t.Fatalf("Do error = %v, want boom", err)
		}
	}
	if calls != 1 {
		t.Fatalf("generator ran %d times, want 1 (errors must be cached)", calls)
	}
}

func TestTraceCacheNil(t *testing.T) {
	var c *TraceCache
	w := Workload{Design: queue.CWL, Policy: core.PolicyEpoch, Threads: 1, Inserts: 20, Seed: 1}
	a, err := cachedTrace(c, w)
	if err != nil {
		t.Fatal(err)
	}
	b, err := cachedTrace(c, w)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("nil cache must generate fresh traces")
	}
	if s := c.Stats(); s != (CacheStats{}) {
		t.Fatalf("nil cache stats = %+v, want zero", s)
	}
}
