package bench

import (
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/trace"
)

// TraceCache memoizes workload traces so a grid generates each distinct
// SC execution once and replays it for every cell that wants it. Keys
// are comparable workload structs (the normalized Workload for
// SimulateCached, any key for Do), so two requests collide exactly when
// they describe the same execution: same structure, same parameters,
// same seed. Table1Config.Cache is its one grid user; the commands run
// uncached, because none of their grids repeat an execution often
// enough to pay for one.
//
// The cache is concurrency-safe and deduplicates in-flight generation:
// when several sweep workers ask for the same trace at once, one
// generates while the rest block on the entry's ready channel and then
// share the result. Failed generations are cached too, so a grid does
// not re-run a broken workload once per cell.
//
// Capacity is bounded two ways: by entry count and by total resident
// events (a byte proxy — chunked storage costs ~32 B/event). Inserting
// past either bound evicts least-recently-used completed entries. An
// evicted trace whose pointer was handed to a caller (by Do) is left to
// the garbage collector — the caller may still hold it. An evicted
// trace that never escaped the cache (pure SimulateCached traffic) is
// pool-Released so its chunks are recycled into the next fill instead
// of growing the heap; a per-entry refcount pins traces against release
// while a replay is in flight.
type TraceCache struct {
	mu       sync.Mutex
	max      int
	budget   int64 // max resident events across completed entries
	resident int64 // events held by completed entries, under mu
	entries  map[any]*cacheEntry
	tick     uint64 // LRU clock, advanced under mu

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	replayed  atomic.Int64 // events served from cache
	generated atomic.Int64 // events produced by cache fills
}

// cacheEntry is the singleflight slot for one workload key. The filling
// goroutine owns tr/err until it closes ready; waiters read them only
// after <-ready. done mirrors the channel state under TraceCache.mu so
// eviction can skip in-flight fills without racing on the channel.
type cacheEntry struct {
	ready   chan struct{}
	done    bool
	escaped bool  // trace pointer returned to a caller; never Release
	refs    int   // pins against eviction-release, under TraceCache.mu
	events  int64 // tr.Len() once done (0 for failed fills)
	lastUse uint64
	tr      *trace.Trace
	err     error
}

// DefaultCacheEntries is the default capacity bound.
const DefaultCacheEntries = 64

// DefaultCacheEventBudget bounds resident trace events (~32 B each, so
// this is roughly a 32 MiB cache). Large experiment grids whose cells
// are all distinct stream through the cache at a bounded footprint
// instead of materializing the whole grid's event history.
const DefaultCacheEventBudget = 1 << 20

// NewTraceCache returns a cache holding at most maxEntries traces
// (maxEntries <= 0 means DefaultCacheEntries) and at most
// DefaultCacheEventBudget resident events.
func NewTraceCache(maxEntries int) *TraceCache {
	if maxEntries <= 0 {
		maxEntries = DefaultCacheEntries
	}
	return &TraceCache{
		max:     maxEntries,
		budget:  DefaultCacheEventBudget,
		entries: make(map[any]*cacheEntry, maxEntries),
	}
}

// SetEventBudget overrides the resident-event bound; n <= 0 restores
// the default. Not safe to call concurrently with lookups.
func (c *TraceCache) SetEventBudget(n int64) {
	if n <= 0 {
		n = DefaultCacheEventBudget
	}
	c.mu.Lock()
	c.budget = n
	c.evictLocked()
	c.mu.Unlock()
}

// get returns the pinned entry for key, creating an in-flight one on
// miss. The caller must call put when finished with the entry's trace;
// on miss the caller is the filling goroutine and must complete the
// entry via fill. escape marks the trace as handed out, disqualifying
// it from eviction-time release.
func (c *TraceCache) get(key any, escape bool) (e *cacheEntry, missed bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		c.tick++
		e.lastUse = c.tick
		e.refs++
		if escape {
			e.escaped = true
		}
		c.hits.Add(1)
		return e, false
	}
	e = &cacheEntry{ready: make(chan struct{}), refs: 1, escaped: escape}
	c.tick++
	e.lastUse = c.tick
	c.entries[key] = e
	c.evictLocked()
	c.misses.Add(1)
	return e, true
}

// put drops the pin taken by get. An over-budget cache may have been
// waiting on this pin to evict.
func (c *TraceCache) put(e *cacheEntry) {
	c.mu.Lock()
	e.refs--
	c.evictLocked()
	c.mu.Unlock()
}

// fill completes a missed entry and wakes its waiters.
func (c *TraceCache) fill(e *cacheEntry, tr *trace.Trace, err error) {
	if err == nil {
		c.generated.Add(int64(tr.Len()))
	}
	c.mu.Lock()
	e.tr, e.err = tr, err
	e.done = true
	if err == nil {
		e.events = int64(tr.Len())
		c.resident += e.events
	}
	c.evictLocked()
	c.mu.Unlock()
	close(e.ready)
}

// Do returns the trace for an arbitrary comparable key, filling via gen
// on miss. Keys of distinct types never collide, so callers need no
// namespacing beyond their own key type (workload.Options and
// workload.KVOptions key the shipped workloads). A nil receiver is a
// pass-through: gen runs uncached, so every caller can thread an
// optional *TraceCache without branching. The returned trace escapes
// to the caller, so eviction will never pool-Release it.
func (c *TraceCache) Do(key any, gen func() (*trace.Trace, error)) (*trace.Trace, error) {
	if c == nil {
		return gen()
	}
	e, missed := c.get(key, true)
	defer c.put(e)
	if missed {
		tr, err := gen()
		c.fill(e, tr, err)
		return tr, err
	}
	<-e.ready
	if e.err == nil {
		c.replayed.Add(int64(e.tr.Len()))
	}
	return e.tr, e.err
}

// evictLocked drops least-recently-used completed entries until both
// the entry count and the resident-event total are within bound.
// In-flight fills and pinned entries are skipped (their waiters hold
// the entry); if everything is pinned the cache runs over budget until
// pins drop. Traces that never escaped the cache are pool-Released so
// their chunks feed the next fill. The O(entries) scan is fine at the
// bounded sizes this cache runs at.
func (c *TraceCache) evictLocked() {
	for len(c.entries) > c.max || c.resident > c.budget {
		var victimKey any
		var victim *cacheEntry
		for k, e := range c.entries {
			if !e.done || e.refs > 0 {
				continue
			}
			if victim == nil || e.lastUse < victim.lastUse {
				victimKey, victim = k, e
			}
		}
		if victim == nil {
			return
		}
		delete(c.entries, victimKey)
		c.resident -= victim.events
		if !victim.escaped && victim.err == nil {
			victim.tr.Release()
		}
		c.evictions.Add(1)
	}
}

// SimulateCached is Simulate through an optional trace cache: a nil
// cache streams the execution straight into the simulator (no trace
// storage, exactly Simulate); a non-nil cache fills or reuses the
// workload's cached trace, executing the workload at most once across
// all parameter sets that ask for it.
//
// On a cache miss the workload runs exactly once, teeing the event
// stream into both the cache's trace and a pooled simulator, so the
// filling caller pays one pass — no generate-then-replay double walk.
// On a hit the cached trace replays through core.Simulate's pooled
// path. Both paths produce byte-identical results — the simulator never
// reads Event.Seq, the only field replay rewrites. A simulator error on
// the miss path is parameter-specific and must not poison the cached
// trace for other parameter sets: the trace still installs whenever
// generation itself succeeded.
func SimulateCached(c *TraceCache, w Workload, p core.Params) (core.Result, error) {
	if c == nil {
		return Simulate(w, p)
	}
	if err := w.normalize(); err != nil {
		return core.Result{}, err
	}
	e, missed := c.get(w, false)
	defer c.put(e) // pin e.tr against eviction-release until replay ends
	if !missed {
		<-e.ready
		if e.err != nil {
			return core.Result{}, e.err
		}
		c.replayed.Add(int64(e.tr.Len()))
		return core.Simulate(e.tr, p)
	}
	t := &trace.Trace{}
	sim, aerr := core.AcquireSim(p)
	if aerr != nil {
		// Bad simulation params: still fill the cache for callers with
		// valid ones, then surface the error.
		if _, rerr := Run(w, t); rerr != nil {
			c.fill(e, nil, rerr)
			return core.Result{}, rerr
		}
		c.fill(e, t, nil)
		return core.Result{}, aerr
	}
	var res core.Result
	var simErr error
	_, rerr := Run(w, trace.Tee{t, sim})
	if rerr == nil {
		if simErr = sim.Err(); simErr == nil {
			res = sim.Result()
		}
	}
	core.ReleaseSim(sim)
	if rerr != nil {
		c.fill(e, nil, rerr) // generation failed: cache the failure
		return core.Result{}, rerr
	}
	c.fill(e, t, nil)
	return res, simErr
}

// CacheStats is a point-in-time snapshot of a TraceCache's counters.
type CacheStats struct {
	Hits      int64 // lookups served from an existing entry
	Misses    int64 // lookups that generated
	Evictions int64 // completed entries dropped for capacity
	Entries   int   // entries resident now (including in-flight)
	Resident  int64 // events held by completed entries right now
	// EventsReplayed counts trace events handed out from cache hits;
	// EventsGenerated counts events produced by fills. Their ratio is
	// the fraction of all simulated events that skipped re-execution.
	EventsReplayed  int64
	EventsGenerated int64
}

// ReplayRate is EventsReplayed / (EventsReplayed + EventsGenerated),
// or 0 before any traffic.
func (s CacheStats) ReplayRate() float64 {
	total := s.EventsReplayed + s.EventsGenerated
	if total == 0 {
		return 0
	}
	return float64(s.EventsReplayed) / float64(total)
}

// Stats snapshots the counters. Safe on a nil cache (all zeros).
func (c *TraceCache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	n := len(c.entries)
	res := c.resident
	c.mu.Unlock()
	return CacheStats{
		Hits:            c.hits.Load(),
		Misses:          c.misses.Load(),
		Evictions:       c.evictions.Load(),
		Entries:         n,
		Resident:        res,
		EventsReplayed:  c.replayed.Load(),
		EventsGenerated: c.generated.Load(),
	}
}
