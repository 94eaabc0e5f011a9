package img

import "testing"

// benchImage is a 752x480 (EuRoC-sized) deterministic texture.
func benchImage() *Gray {
	g := New(752, 480)
	s := uint64(7)
	for i := range g.Pix {
		s = s*6364136223846793005 + 1442695040888963407
		g.Pix[i] = byte(s >> 56)
	}
	return g
}

// BenchmarkPyramid builds the extractor's default 4-level, 1.2-step
// pyramid through the public constructor.
func BenchmarkPyramid(b *testing.B) {
	g := benchImage()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewPyramid(g, 4, 1.2)
	}
}
