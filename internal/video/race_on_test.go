//go:build race

package video

// raceEnabled skips the allocation ceiling under the race detector,
// where sync.Pool drops a quarter of what is Put on purpose.
const raceEnabled = true
