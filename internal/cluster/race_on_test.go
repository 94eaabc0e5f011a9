//go:build race

package cluster

// raceEnabled skips the allocation ceiling under the race detector,
// which allocates on its own account.
const raceEnabled = true
