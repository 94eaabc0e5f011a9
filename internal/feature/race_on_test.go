//go:build race

package feature

// raceEnabled skips the allocation ceilings under the race detector,
// where sync.Pool drops a quarter of what is Put on purpose.
const raceEnabled = true
