//go:build !race

package video

const raceEnabled = false
