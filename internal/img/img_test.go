package img

import (
	"testing"
	"testing/quick"
)

func TestAtSetBounds(t *testing.T) {
	g := New(10, 5)
	g.Set(3, 2, 200)
	if g.At(3, 2) != 200 {
		t.Error("Set/At round trip failed")
	}
	if g.At(-1, 0) != 0 || g.At(10, 0) != 0 || g.At(0, 5) != 0 {
		t.Error("out-of-bounds read not zero")
	}
	g.Set(-1, -1, 99) // must not panic
	g.Set(100, 100, 99)
}

func TestCloneIndependent(t *testing.T) {
	g := New(4, 4)
	g.Fill(7)
	c := g.Clone()
	c.Set(0, 0, 99)
	if g.At(0, 0) != 7 {
		t.Error("clone shares storage")
	}
}

func TestMean(t *testing.T) {
	g := New(2, 2)
	g.Pix = []byte{0, 100, 100, 200}
	if got := g.Mean(); got != 100 {
		t.Errorf("Mean = %v", got)
	}
	empty := &Gray{}
	if empty.Mean() != 0 {
		t.Error("empty mean should be 0")
	}
}

func TestResizePreservesUniform(t *testing.T) {
	f := func(v byte) bool {
		g := New(64, 48)
		g.Fill(v)
		r := g.Resize(40, 30)
		for _, p := range r.Pix {
			if p != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestResizeIdentity(t *testing.T) {
	g := New(16, 16)
	for i := range g.Pix {
		g.Pix[i] = byte(i * 7)
	}
	r := g.Resize(16, 16)
	if AbsDiff(g, r) > 0.51 {
		t.Errorf("identity resize differs by %v", AbsDiff(g, r))
	}
}

func TestAbsDiff(t *testing.T) {
	a := New(2, 2)
	b := New(2, 2)
	if AbsDiff(a, b) != 0 {
		t.Error("identical images differ")
	}
	b.Fill(10)
	if AbsDiff(a, b) != 10 {
		t.Errorf("diff = %v", AbsDiff(a, b))
	}
	c := New(3, 3)
	if AbsDiff(a, c) != 255 {
		t.Error("size mismatch should report max diff")
	}
}

func TestPyramidLevels(t *testing.T) {
	g := New(752, 480)
	p := NewPyramid(g, 8, 1.2)
	if len(p.Levels) != 8 {
		t.Fatalf("levels = %d", len(p.Levels))
	}
	for i := 1; i < len(p.Levels); i++ {
		if p.Levels[i].W >= p.Levels[i-1].W {
			t.Fatalf("level %d not smaller", i)
		}
		if p.Scales[i] <= p.Scales[i-1] {
			t.Fatalf("scales not increasing at %d", i)
		}
	}
}

func TestPyramidStopsAtMinSize(t *testing.T) {
	g := New(64, 64)
	p := NewPyramid(g, 20, 1.5)
	if len(p.Levels) >= 20 {
		t.Error("pyramid should truncate before 20 levels on a 64px image")
	}
	last := p.Levels[len(p.Levels)-1]
	if last.W < 32 || last.H < 32 {
		t.Errorf("last level too small: %dx%d", last.W, last.H)
	}
}

func TestPyramidDefaults(t *testing.T) {
	g := New(100, 100)
	p := NewPyramid(g, 0, 0)
	if len(p.Levels) != 1 || p.Factor != 1.2 {
		t.Errorf("defaults not applied: %d levels, factor %v", len(p.Levels), p.Factor)
	}
}

func TestToLevel0(t *testing.T) {
	g := New(200, 200)
	p := NewPyramid(g, 3, 2.0)
	x, y := p.ToLevel0(10, 20, 1)
	if x != 20 || y != 40 {
		t.Errorf("ToLevel0 = (%v, %v)", x, y)
	}
}

func TestRowSlice(t *testing.T) {
	g := New(4, 3)
	r := g.Row(1)
	r[0] = 42
	if g.At(0, 1) != 42 {
		t.Error("Row should alias image storage")
	}
	if len(r) != 4 {
		t.Errorf("row length %d", len(r))
	}
}
