//go:build race

package core

// raceEnabled reports a -race build, where sync.Pool drops a random
// share of the objects put back, so allocation counts that rely on
// the simulator pool do not hold.
const raceEnabled = true
