package feature

import (
	"testing"

	"slamshare/internal/camera"
	"slamshare/internal/dataset"
	"slamshare/internal/img"
)

// benchPair renders one MH04 stereo pair, the 752x480 input every
// kernel benchmark and allocation ceiling here runs on.
func benchPair(tb testing.TB) (left, right *img.Gray, seq *dataset.Sequence) {
	tb.Helper()
	seq = dataset.MH04(camera.Stereo)
	left, right = seq.StereoFrame(40)
	return left, right, seq
}

func BenchmarkExtract(b *testing.B) {
	left, right, _ := benchPair(b)
	ex := NewExtractor(DefaultConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i&1 == 0 {
			ex.Extract(left)
		} else {
			ex.Extract(right)
		}
	}
}

// BenchmarkFASTStrip scans one full-width 40-row strip of level 0 at
// the default threshold.
func BenchmarkFASTStrip(b *testing.B) {
	left, _, _ := benchPair(b)
	var dst []rawCorner
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = AppendFAST(dst[:0], left, DefaultConfig().Threshold, Border, 200, 240)
	}
}

// BenchmarkDescribe orients and describes the keypoints of one frame
// on level 0.
func BenchmarkDescribe(b *testing.B) {
	left, _, _ := benchPair(b)
	kps := NewExtractor(DefaultConfig()).Extract(left)
	var sink Descriptor
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range kps {
			x, y := int(kps[j].X+0.5), int(kps[j].Y+0.5)
			sink = Describe(left, x, y, Orientation(left, x, y))
		}
	}
	_ = sink
}

func BenchmarkStereoMatch(b *testing.B) {
	left, right, seq := benchPair(b)
	ex := NewExtractor(DefaultConfig())
	kl, kr := ex.Extract(left), ex.Extract(right)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		StereoMatchPar(kl, kr, seq.Rig.Intr.Fx, seq.Rig.Baseline, 2, nil)
	}
}

func BenchmarkStereoSearch(b *testing.B) {
	left, right, seq := benchPair(b)
	ex := NewExtractor(DefaultConfig())
	kps := ex.Extract(left)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex.StereoSearch(left, right, kps, seq.Rig.Intr.Fx, seq.Rig.Baseline)
	}
}
