//go:build race

package workload

// raceEnabled reports a -race build, where sync.Pool drops a random
// share of the objects put back, so allocation counts that rely on
// pooled reuse do not hold.
const raceEnabled = true
