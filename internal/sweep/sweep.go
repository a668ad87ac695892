// Package sweep is the bounded worker pool behind every experiment
// grid: pqbench's (seed × design × policy × config) sweeps, the
// observer's crash-cut sampling, and fault campaigns all fan their
// work items out through Run.
//
// The pool's contract is *deterministic aggregation*: fn evaluates
// grid items concurrently (bounded by Config.Parallel workers), but
// merge is called on the caller's goroutine in strict grid order —
// item i merges only after items 0..i-1 — regardless of completion
// order. A grid whose items are independent and deterministic
// therefore produces byte-identical aggregated reports at any worker
// count, which is what keeps the golden seed-stability tests and
// campaign repro strings meaningful under parallelism.
//
// Error semantics mirror a sequential loop: the first error (by grid
// index, not completion time) wins, merging stops before the erroring
// index, and in-flight work is canceled — workers finish their
// current item and exit.
package sweep

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/telemetry"
)

// Config parameterizes a sweep.
type Config struct {
	// Parallel is the worker count; 0 or negative means GOMAXPROCS
	// (the -parallel CLI flag plumbs straight into this field).
	Parallel int
	// Name labels this sweep's telemetry series; "" means "sweep".
	Name string
	// Registry, when non-nil, receives per-sweep telemetry: a
	// sweep_workers_busy gauge, a sweep_queue_depth histogram
	// (items still unclaimed at each dequeue), and a
	// sweep_items_total counter, all labeled {sweep="Name"}.
	Registry *telemetry.Registry
	// Spans, when non-nil, records one wall-clock span per grid item
	// (category "sweep", name Name, worker attribution, item index) —
	// per-worker span totals reconcile with the Registry's items/busy
	// telemetry.
	Spans *telemetry.SpanTracer
}

// Workers resolves the effective worker count.
func (c Config) Workers() int {
	if c.Parallel > 0 {
		return c.Parallel
	}
	return runtime.GOMAXPROCS(0)
}

// Named returns a copy of c with Name defaulted to name — callers pass
// a CLI-provided Config through while labeling each sweep they run.
func (c Config) Named(name string) Config {
	if c.Name == "" {
		c.Name = name
	}
	return c
}

// QueueDepthBounds are the sweep_queue_depth histogram buckets.
var QueueDepthBounds = []float64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384}

// gauges bundles the optional telemetry series of one sweep.
type gauges struct {
	busy  *telemetry.Gauge
	depth *telemetry.Histogram
	items *telemetry.Counter
}

func (c Config) gauges() gauges {
	if c.Registry == nil {
		return gauges{}
	}
	name := c.Name
	if name == "" {
		name = "sweep"
	}
	return gauges{
		busy:  c.Registry.Gauge(telemetry.Label("sweep_workers_busy", "sweep", name)),
		depth: c.Registry.Histogram(telemetry.Label("sweep_queue_depth", "sweep", name), QueueDepthBounds...),
		items: c.Registry.Counter(telemetry.Label("sweep_items_total", "sweep", name)),
	}
}

// result carries one completed grid item to the merge loop.
type result[T any] struct {
	i   int
	v   T
	err error
}

// Run evaluates fn(i) for every i in [0, n) on a bounded worker pool
// and feeds results to merge in strict index order on the caller's
// goroutine. fn must be safe for concurrent invocation and must not
// depend on the results of other grid items; merge needs no locking.
// A nil merge discards results. Run returns the lowest-index error
// from fn or merge (identical to what a sequential loop would return
// for independent items), canceling remaining work on failure.
func Run[T any](n int, cfg Config, fn func(i int) (T, error), merge func(i int, v T) error) error {
	if n <= 0 {
		return nil
	}
	workers := cfg.Workers()
	if workers > n {
		workers = n
	}
	g := cfg.gauges()

	spanName := cfg.Name
	if spanName == "" {
		spanName = "sweep"
	}

	if workers <= 1 {
		for i := 0; i < n; i++ {
			if g.depth != nil {
				g.depth.Observe(float64(n - i - 1))
			}
			sp := cfg.Spans.Start("sweep", spanName).Worker(0).Arg("item", i)
			v, err := fn(i)
			sp.End()
			if g.items != nil {
				g.items.Inc()
			}
			if err != nil {
				return err
			}
			if merge != nil {
				if err := merge(i, v); err != nil {
					return err
				}
			}
		}
		return nil
	}
	return runPool(n, workers, g, cfg.Spans, spanName, fn, merge)
}

// runPool is Run's parallel path on workers goroutines. It takes only
// what the workers read: the goroutines capture its parameters, which
// moves them to the heap, and as Run's own locals they would move on
// every call, the sequential ones too.
func runPool[T any](n, workers int, g gauges, spans *telemetry.SpanTracer, spanName string, fn func(i int) (T, error), merge func(i int, v T) error) error {
	var (
		next    atomic.Int64
		stopped atomic.Bool
		busy    atomic.Int64
		wg      sync.WaitGroup
	)
	ch := make(chan result[T], workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for !stopped.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if g.depth != nil {
					g.depth.Observe(float64(n - i - 1))
				}
				if g.busy != nil {
					g.busy.Set(float64(busy.Add(1)))
				}
				sp := spans.Start("sweep", spanName).Worker(worker).Arg("item", i)
				v, err := fn(i)
				sp.End()
				if g.busy != nil {
					g.busy.Set(float64(busy.Add(-1)))
				}
				if g.items != nil {
					g.items.Inc()
				}
				if err != nil {
					stopped.Store(true)
				}
				ch <- result[T]{i, v, err}
			}
		}(w)
	}
	go func() {
		wg.Wait()
		close(ch)
	}()

	// Ordered merge: buffer out-of-order completions, advance a merge
	// cursor. An fn error at index e never enters the buffer, so the
	// cursor can never pass e — items after an error are dropped just
	// as a sequential loop would never have computed them. Indices are
	// claimed in order, so by the time any index errors, every lower
	// index is already in flight and will still report; the
	// lowest-index error therefore matches the sequential one.
	pending := make(map[int]result[T])
	nextMerge := 0
	var fnErr, mergeErr error
	errIndex := n
	for r := range ch {
		if r.err != nil {
			if r.i < errIndex {
				errIndex, fnErr = r.i, r.err
			}
			continue
		}
		pending[r.i] = r
		for mergeErr == nil && nextMerge < errIndex {
			q, ok := pending[nextMerge]
			if !ok {
				break
			}
			delete(pending, nextMerge)
			if merge != nil {
				if err := merge(nextMerge, q.v); err != nil {
					mergeErr = err
					stopped.Store(true)
				}
			}
			nextMerge++
		}
	}
	if g.busy != nil {
		g.busy.Set(0)
	}
	if mergeErr != nil {
		// A merge at index m only runs once fn(0..m) all succeeded, so
		// any fn error sits above m and the sequential loop would have
		// surfaced the merge error first.
		return mergeErr
	}
	return fnErr
}
