package video

import (
	"testing"

	"slamshare/internal/camera"
	"slamshare/internal/dataset"
	"slamshare/internal/img"
)

// BenchmarkCodecRoundTrip measures the steady-state per-frame cost of
// the video path (encode + decode) on a real sequence. Its allocs/op
// is the regression guard for the scratch pooling: one frame should
// cost a handful of allocations (the returned payload and frame), not
// fresh filter/residual/DEFLATE state.
func BenchmarkCodecRoundTrip(b *testing.B) {
	seq := dataset.V202(camera.Mono)
	const frames = 8
	enc := NewEncoder()
	dec := NewDecoder()
	// Warm the stream so the loop measures steady state.
	for i := 0; i < frames; i++ {
		if _, err := dec.Decode(enc.Encode(seq.Frame(i))); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := seq.Frame(i % frames)
		b.StartTimer()
		payload := enc.Encode(f)
		if _, err := dec.Decode(payload); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
	}
}

// BenchmarkEncodeImage measures the image-transfer baseline encoder.
func BenchmarkEncodeImage(b *testing.B) {
	seq := dataset.V202(camera.Mono)
	f := seq.Frame(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EncodeImage(f)
	}
}

// mh04Stereo renders the first n stereo frames (every second dataset
// frame, as the sessions send them) of MH04 at 752x480: the input the
// device and the front actually encode.
func mh04Stereo(n int) (lefts, rights []*img.Gray) {
	seq := dataset.MH04(camera.Stereo)
	for i := 0; i < n; i++ {
		l, r := seq.StereoFrame(2 * i)
		lefts, rights = append(lefts, l), append(rights, r)
	}
	return lefts, rights
}

// benchFrames is below the GOP, so after the priming intra frame every
// measured frame is a P-frame.
const benchFrames = 12

var benchPayload []byte

// benchPFrames times encode(k) over frames 1..benchFrames-1, round and
// round; before each round prime (untimed) restarts the stream and
// encodes frame 0.
func benchPFrames(b *testing.B, prime func(), encode func(k int) []byte) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := 1 + i%(benchFrames-1)
		if k == 1 {
			b.StopTimer()
			prime()
			b.StartTimer()
		}
		benchPayload = encode(k)
	}
}

// BenchmarkEncodeEye measures one eye's P-frame encode on the real
// input; its B/op is the guard for the pre-sized payload buffer.
func BenchmarkEncodeEye(b *testing.B) {
	lefts, _ := mh04Stereo(benchFrames)
	enc := NewEncoder()
	benchPFrames(b, func() {
		enc.Reset()
		enc.Encode(lefts[0])
	}, func(k int) []byte { return enc.Encode(lefts[k]) })
}

// BenchmarkDecodeEye measures one eye's P-frame decode of the stream
// BenchmarkEncodeEye times: the server's work per eye per frame.
func BenchmarkDecodeEye(b *testing.B) {
	lefts, _ := mh04Stereo(benchFrames)
	enc := NewEncoder()
	payloads := make([][]byte, benchFrames)
	for k, f := range lefts {
		payloads[k] = enc.Encode(f)
	}
	var dec *Decoder
	benchPFrames(b, func() {
		dec = NewDecoder()
		if _, err := dec.Decode(payloads[0]); err != nil {
			b.Fatal(err)
		}
	}, func(k int) []byte {
		if _, err := dec.Decode(payloads[k]); err != nil {
			b.Fatal(err)
		}
		return payloads[k]
	})
}

// BenchmarkEncodeStereo measures a stereo pair's P-frames, the two
// eyes overlapped as the client and the front run them.
func BenchmarkEncodeStereo(b *testing.B) {
	lefts, rights := mh04Stereo(benchFrames)
	encL, encR := NewEncoder(), NewEncoder()
	benchPFrames(b, func() {
		encL.Reset()
		encR.Reset()
		EncodeStereo(encL, encR, lefts[0], rights[0])
	}, func(k int) []byte {
		l, _ := EncodeStereo(encL, encR, lefts[k], rights[k])
		return l
	})
}
