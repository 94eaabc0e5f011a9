package feature

import (
	"math"
	"testing"

	"slamshare/internal/img"
)

// TestLevelScaleIsPyramids: the scale table the split-mode record rebuilds
// positions with is, bit for bit, the one DefaultConfig's pyramid builds,
// and it ends where the pyramid does.
func TestLevelScaleIsPyramids(t *testing.T) {
	cfg := DefaultConfig()
	pyr := img.NewPyramid(img.New(752, 480), cfg.Levels, cfg.ScaleFactor)
	if len(pyr.Scales) != cfg.Levels {
		t.Fatalf("pyramid has %d levels, want %d", len(pyr.Scales), cfg.Levels)
	}
	for l, want := range pyr.Scales {
		got, ok := LevelScale(l)
		if !ok || math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("LevelScale(%d) = %v, %v; pyramid has %v", l, got, ok, want)
		}
	}
	for _, l := range []int{-1, cfg.Levels, 7} {
		if _, ok := LevelScale(l); ok {
			t.Errorf("LevelScale(%d) accepted a level past the pyramid", l)
		}
	}
}

// TestGridRoundTrip: ToGrid inverts FromGrid exactly on every level's grid
// and refuses what no corner maps to.
func TestGridRoundTrip(t *testing.T) {
	if got := FromGrid(10, 2); got != 20 {
		t.Errorf("FromGrid(10, 2) = %v", got)
	}
	for l := range DefaultConfig().Levels {
		s, _ := LevelScale(l)
		for _, c := range []int{0, 1, 2, 3, 7, 100, 377, 751, 4095, MaxGrid - 1, MaxGrid} {
			v := FromGrid(c, s)
			if got, ok := ToGrid(v, s); !ok || got != c {
				t.Errorf("level %d: ToGrid(FromGrid(%d)) = %d, %v", l, c, got, ok)
			}
			// The neighbouring float64 is on no corner.
			if _, ok := ToGrid(math.Nextafter(v, math.Inf(1)), s); ok {
				t.Errorf("level %d: ToGrid accepted %v + 1 ulp", l, v)
			}
		}
	}
	s2, _ := LevelScale(2)
	for _, v := range []float64{-1, math.Copysign(0, -1), 0.5, FromGrid(MaxGrid+1, 1),
		math.NaN(), math.Inf(1), math.Inf(-1), 10.5} {
		if c, ok := ToGrid(v, s2); ok {
			t.Errorf("ToGrid(%v) = %d, want no corner", v, c)
		}
	}
}
