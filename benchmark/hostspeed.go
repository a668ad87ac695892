package main

import (
	"math"
	"slices"
	"time"
)

// Host-speed correction.
//
// On a shared host the same job's wall time moves with the neighbours,
// not only with the code. On the 2-vCPU guest this benchmark was written
// on, cache- and memory-bound code ran 1.4–1.8× slower for seconds to
// minutes at a time, while a register-only loop barely moved. Over 20 s
// slices of one 10-minute run, queue-table1's median job time varied by
// 1.8× and crash-exhaustive's by 1.5×. The slow phases lasted longer
// than a run, so no statistic over one run's raw times held still, not
// even the median of its fastest window (15–30% quartile spread).
//
// So every timed interval (each set-up, each job) is bracketed by runs of
// a fixed reference: five small kernels owned by the benchmark, which no
// change to the libraries can speed up or slow down. The host slowdown
// over an interval is the mean of the two reference times around it over
// refNominal. An interval's corrected time is its wall time divided by
// the slowdown raised to the workload's sensitivity: an estimate of the
// time the interval would have taken on a host where the reference takes
// refNominal.
//
// The sensitivity is needed because the workloads do not slow alike. The
// reference and queue-table1 and crash-exhaustive, whose data fits in the
// caches, slowed by up to 1.8×; kv-read, which streams a gigabyte per job
// through memory, by under 1.3× at the same moments. Dividing kv-read by
// the full slowdown left its median's quartile spread over ten seeds at
// 8–12%, worse than no correction. Each workload's sensitivity is the
// power, in steps of 0.25, that gave the smallest worst-case quartile
// spread of job_ms_p50 and job_ms_p90 over three ten-seed sets on that
// guest: 0.5 for kv-read, 0.75 for kv-graph, 1 for queue-table1 and 1.25
// for crash-exhaustive. `spread.py sensitivity` shows the spreads at
// every power for kept sets. The sensitivity only weighs the reference;
// the timed work stays the libraries' own.
type reference struct {
	sweep []uint64
	table map[uint64]uint64
	sort  []uint64
	chase []uint32
	sink  uint64
}

// refNominal is about the reference's time on an uncontended host: its
// 10th percentile over thousands of runs on the guest described above was
// 4.5–5.0 ms. It only sets the scale of corrected times; any constant
// would do, as long as it never changes.
const refNominal = 5 * time.Millisecond

const (
	refSweepWords = 32 << 10 // 256 KiB
	refTableKeys  = 1 << 16
	refSortLen    = 1 << 13
	refChaseSlots = 1 << 18 // 1 MiB
)

func newReference() *reference {
	r := &reference{
		sweep: make([]uint64, refSweepWords),
		table: make(map[uint64]uint64, refTableKeys),
		sort:  make([]uint64, refSortLen),
		chase: make([]uint32, refChaseSlots),
	}
	for k := uint64(0); k < refTableKeys; k++ {
		r.table[k*0x9E3779B97F4A7C15] = k
	}
	// One random cycle through every slot, so the chase visits all of
	// them in an order the prefetcher cannot follow.
	perm := make([]uint32, refChaseSlots)
	for i := range perm {
		perm[i] = uint32(i)
	}
	x := uint64(88172645463325252)
	for i := len(perm) - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x % uint64(i+1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	for i, p := range perm {
		r.chase[p] = perm[(i+1)%len(perm)]
	}
	return r
}

// run returns the wall time of one pass of the reference's fixed work.
// An untimed pass first brings its data back into the caches the job
// before it used, so the time depends on the host, not on how much the
// job evicted; timing the first pass instead left the queue-table1
// median's spread at 17% where the warm pass gave 9%. It allocates
// nothing, so alloc_mb_per_job does not see it.
func (r *reference) run() time.Duration {
	r.work()
	t0 := time.Now()
	r.work()
	return time.Since(t0)
}

func (r *reference) work() {
	var s uint64
	for range 32 {
		for i := range r.sweep {
			s += r.sweep[i] ^ uint64(i)
			r.sweep[i] = s
		}
	}
	x := uint64(1)
	for range 750_000 {
		x = x*6364136223846793005 + 1442695040888963407
	}
	y := uint64(7)
	for range 30_000 {
		y = y*6364136223846793005 + 1442695040888963407
		r.table[(y>>48)*0x9E3779B97F4A7C15]++ // every key exists: no growth
	}
	for i := range r.sort {
		y = y*6364136223846793005 + 1442695040888963407
		r.sort[i] = y
	}
	slices.Sort(r.sort)
	p := uint32(0)
	for range 75_000 {
		p = r.chase[p]
	}
	r.sink += s + x + y + uint64(p)
}

// slowdown is the host slowdown over an interval bracketed by reference
// times before and after.
func slowdown(before, after time.Duration) float64 {
	return float64(before+after) / 2 / float64(refNominal)
}

// hostFactor is what the workload's times are divided by at a host
// slowdown.
func (w workloadDef) hostFactor(slowdown float64) float64 {
	return math.Pow(slowdown, w.sensitivity)
}
