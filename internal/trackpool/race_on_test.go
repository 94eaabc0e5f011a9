//go:build race

package trackpool_test

// raceEnabled skips the allocation ceilings under the race detector,
// where sync.Pool drops a quarter of what is Put on purpose.
const raceEnabled = true
