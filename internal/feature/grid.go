package feature

import "math"

// A keypoint sits on a corner of its pyramid level's pixel grid: X and Y
// are that corner's integer coordinates times the level's scale. FromGrid
// is the one place the product is formed — the extractor places every
// keypoint with it — and ToGrid is its exact inverse, so the split-mode
// uplink can carry the corner and rebuild X and Y bit for bit.

// MaxGrid is the largest level-grid coordinate ToGrid returns; every
// corner fits in 16 bits (images are far narrower).
const MaxGrid = math.MaxUint16

// FromGrid maps coordinate c of a pyramid level's pixel grid to level 0
// at that level's scale.
func FromGrid(c int, scale float64) float64 { return float64(c) * scale }

// ToGrid returns the grid coordinate in [0, MaxGrid] that FromGrid maps
// to v bit for bit at scale, and false when there is none. Distinct
// coordinates map at least one scale apart, so the nearest integer to
// v/scale is the only candidate.
func ToGrid(v, scale float64) (int, bool) {
	q := math.Round(v / scale)
	if !(q >= 0 && q <= MaxGrid) {
		return 0, false
	}
	c := int(q)
	return c, math.Float64bits(FromGrid(c, scale)) == math.Float64bits(v)
}

// defaultScales is DefaultConfig's pyramid scale table, formed by the
// repeated product img.Pyramid.Build forms (TestLevelScaleIsPyramids).
var defaultScales = func() []float64 {
	cfg := DefaultConfig()
	s := []float64{1}
	for len(s) < cfg.Levels {
		s = append(s, s[len(s)-1]*cfg.ScaleFactor)
	}
	return s
}()

// LevelScale returns level l's scale in DefaultConfig's pyramid — the
// pyramid every client extracts on — and false for a level past it.
func LevelScale(l int) (float64, bool) {
	if l < 0 || l >= len(defaultScales) {
		return 0, false
	}
	return defaultScales[l], true
}
