//go:build !race

package trackpool_test

const raceEnabled = false
