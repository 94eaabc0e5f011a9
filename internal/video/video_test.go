package video

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"sync"
	"testing"

	"slamshare/internal/camera"
	"slamshare/internal/dataset"
	"slamshare/internal/feature"
	"slamshare/internal/img"
)

func TestImageRoundTripLossless(t *testing.T) {
	seq := dataset.V202(camera.Mono)
	f := seq.Frame(0)
	data := EncodeImage(f)
	got, err := DecodeImage(data)
	if err != nil {
		t.Fatal(err)
	}
	if img.AbsDiff(f, got) != 0 {
		t.Error("image codec is not lossless")
	}
	if len(data) >= len(f.Pix) {
		t.Errorf("no compression: %d >= %d", len(data), len(f.Pix))
	}
}

// maxAbsDiff returns the largest per-pixel difference of two images of
// one size.
func maxAbsDiff(a, b *img.Gray) int {
	worst := 0
	for j := range a.Pix {
		d := int(a.Pix[j]) - int(b.Pix[j])
		if d < 0 {
			d = -d
		}
		if d > worst {
			worst = d
		}
	}
	return worst
}

func TestVideoRoundTripBounded(t *testing.T) {
	seq := dataset.V202(camera.Mono)
	enc := NewEncoder()
	dec := NewDecoder()
	for i := 0; i < 10; i++ {
		f := seq.Frame(i)
		got, err := dec.Decode(enc.Encode(f))
		if err != nil {
			t.Fatal(err)
		}
		// Deadzone quantization bounds per-pixel error by the deadzone.
		if worst := maxAbsDiff(f, got); worst > enc.Deadzone {
			t.Fatalf("frame %d: error %d exceeds deadzone %d", i, worst, enc.Deadzone)
		}
	}
}

func TestVideoBeatsImagesOnBandwidth(t *testing.T) {
	// The substance of Table 3: the video stream must be far smaller
	// than independent image transfers of the same frames.
	seq := dataset.MH04(camera.Mono)
	enc := NewEncoder()
	var vid, im StreamStats
	for i := 0; i < 30; i++ {
		f := seq.Frame(i)
		vid.Frames++
		vid.TotalBytes += len(enc.Encode(f))
		im.Frames++
		im.TotalBytes += len(EncodeImage(f))
	}
	ratio := float64(im.TotalBytes) / float64(vid.TotalBytes)
	t.Logf("image %.1f Mbit/s vs video %.1f Mbit/s (%.1fx)",
		im.BitrateMbps(30), vid.BitrateMbps(30), ratio)
	if ratio < 5 {
		t.Errorf("video only %.1fx smaller than images", ratio)
	}
}

func TestVideoPreservesTracking(t *testing.T) {
	// The ATE row of Table 3: features extracted from decoded video
	// must match those from the raw frames.
	seq := dataset.V202(camera.Mono)
	enc := NewEncoder()
	dec := NewDecoder()
	ex := feature.NewExtractor(feature.DefaultConfig())
	f := seq.Frame(3)
	raw := ex.Extract(f)
	// Run a couple of frames through to land on an inter frame.
	dec.Decode(enc.Encode(seq.Frame(0)))
	dec.Decode(enc.Encode(seq.Frame(1)))
	dec.Decode(enc.Encode(seq.Frame(2)))
	decoded, err := dec.Decode(enc.Encode(f))
	if err != nil {
		t.Fatal(err)
	}
	viaVideo := ex.Extract(decoded)
	matches := feature.MatchBrute(raw, viaVideo, feature.MatchThresholdStrict, feature.RatioTest)
	if len(raw) == 0 || len(matches) < len(raw)*6/10 {
		t.Errorf("only %d/%d features survive the codec", len(matches), len(raw))
	}
}

func TestDecoderErrors(t *testing.T) {
	dec := NewDecoder()
	if _, err := dec.Decode([]byte{1, 2}); err == nil {
		t.Error("short payload accepted")
	}
	if _, err := dec.Decode([]byte{9, 0, 0, 0, 0, 0, 0, 0, 0}); err == nil {
		t.Error("unknown kind accepted")
	}
	// Inter frame without a reference must fail.
	enc := NewEncoder()
	f := img.New(64, 64)
	enc.Encode(f)          // intra, primes encoder
	inter := enc.Encode(f) // inter
	if inter[0] != frameInter {
		t.Fatal("expected inter frame")
	}
	fresh := NewDecoder()
	if _, err := fresh.Decode(inter); err == nil {
		t.Error("inter without reference accepted")
	}

	// A header may not claim more pixels than its payload can inflate
	// to, and the claim must be refused before it is allocated: a bare
	// 16384x16384 header would otherwise cost 256 MiB.
	header := func(kind byte, w, h uint32) []byte {
		b := make([]byte, 9)
		b[0] = kind
		binary.LittleEndian.PutUint32(b[1:], w)
		binary.LittleEndian.PutUint32(b[5:], h)
		return b
	}
	bomb := header(frameIntra, 1<<14, 1<<14)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	_, err := NewDecoder().Decode(bomb)
	runtime.ReadMemStats(&m1)
	if !errors.Is(err, ErrCorrupt) {
		t.Errorf("bare 16384x16384 header: err = %v, want ErrCorrupt", err)
	}
	if got := m1.TotalAlloc - m0.TotalAlloc; got >= 1<<20 {
		t.Errorf("bare 16384x16384 header allocated %d bytes before it was refused", got)
	}
	// The same with a real but far too short DEFLATE stream behind it,
	// intra and (against a decoder that holds a reference) inter.
	small := EncodeImage(img.New(64, 64))
	big := append(header(frameIntra, 4096, 4096), small[9:]...)
	if _, err := NewDecoder().Decode(big); !errors.Is(err, ErrCorrupt) {
		t.Errorf("4096x4096 header on a 64x64 stream: err = %v, want ErrCorrupt", err)
	}
	ref := NewDecoder()
	flat := img.New(2048, 2048)
	enc2 := NewEncoder()
	if _, err := ref.Decode(enc2.Encode(flat)); err != nil {
		t.Fatalf("flat 2048x2048 intra frame refused: %v", err)
	}
	if _, err := ref.Decode(append(header(frameInter, 2048, 2048), inter[9:]...)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("2048x2048 inter header on a 64x64 stream: err = %v, want ErrCorrupt", err)
	}
	// The best case the codec itself produces — a flat image, which
	// DEFLATE shrinks close to its 1032:1 limit — still decodes.
	if _, err := ref.Decode(enc2.Encode(flat)); err != nil {
		t.Errorf("flat 2048x2048 inter frame refused: %v", err)
	}
}

func TestEncoderReintraAfterResize(t *testing.T) {
	enc := NewEncoder()
	a := img.New(64, 64)
	b := img.New(32, 32)
	enc.Encode(a)
	data := enc.Encode(b) // size change must force an intra frame
	if data[0] != frameIntra {
		t.Error("resize did not force intra frame")
	}
}

func TestIsIntra(t *testing.T) {
	// Every GOP-th frame of a stream, and nothing else in it.
	f := img.New(48, 40)
	for _, gop := range []int{1, 3, 30} {
		enc := &Encoder{GOP: gop, Deadzone: 5}
		for i := 0; i < 2*gop+2; i++ {
			f.Pix[i]++ // the answer must not depend on a static scene
			if got, want := IsIntra(enc.Encode(f)), i%gop == 0; got != want {
				t.Errorf("GOP %d frame %d: IsIntra = %v, want %v", gop, i, got, want)
			}
		}
	}
	for _, tc := range []struct {
		name    string
		payload []byte
		want    bool
	}{
		{"EncodeImage", EncodeImage(f), true},
		{"empty", nil, false},
		{"intra kind, header cut short", []byte{frameIntra, 48, 0, 0, 0, 40, 0, 0}, false},
		{"9-byte garbage header", []byte{0x9c, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, false},
	} {
		if got := IsIntra(tc.payload); got != tc.want {
			t.Errorf("%s: IsIntra = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestStreamStats(t *testing.T) {
	s := StreamStats{Frames: 30, TotalBytes: 30 * 4167}
	// 4167 B/frame * 8 * 30 fps = ~1 Mbit/s.
	if m := s.BitrateMbps(30); m < 0.9 || m > 1.1 {
		t.Errorf("bitrate = %v", m)
	}
	if (StreamStats{}).BitrateMbps(30) != 0 {
		t.Error("empty stream bitrate nonzero")
	}
}

func TestEncodeStereo(t *testing.T) {
	// Two eyes at once must be two serial encodes, byte for byte, over
	// a stream that crosses from the intra frame into P-frames.
	seq := dataset.MH04(camera.Stereo)
	encL, encR := NewEncoder(), NewEncoder()
	serL, serR := NewEncoder(), NewEncoder()
	for i := 0; i < 12; i++ {
		left, right := seq.StereoFrame(i)
		l, r := EncodeStereo(encL, encR, left, right)
		if wl, wr := serL.Encode(left), serR.Encode(right); !bytes.Equal(l, wl) || !bytes.Equal(r, wr) {
			t.Fatalf("frame %d: EncodeStereo differs from two serial Encode calls", i)
		}
	}
}

func TestEncodeStereoMono(t *testing.T) {
	f := dataset.V202(camera.Mono).Frame(0)
	encL, encR := NewEncoder(), NewEncoder()
	before := runtime.NumGoroutine()
	l, r := EncodeStereo(encL, encR, f, nil)
	if r != nil {
		t.Errorf("mono: right payload of %d bytes, want nil", len(r))
	}
	if !bytes.Equal(l, NewEncoder().Encode(f)) {
		t.Error("mono: left payload differs from Encode")
	}
	if encR.count != 0 {
		t.Error("mono: the right stream advanced")
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Errorf("mono: %d goroutines before, %d after", before, after)
	}
}

func TestEncodeStereoConcurrentSessions(t *testing.T) {
	// Two sessions encoding and decoding at once share only the pools;
	// run under -race.
	var wg sync.WaitGroup
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			seq := dataset.V202(camera.Stereo) // a Sequence renders for one caller at a time
			encL, encR := NewEncoder(), NewEncoder()
			decL, decR := NewDecoder(), NewDecoder()
			for i := 0; i < 4; i++ {
				left, right := seq.StereoFrame(2*i + s)
				l, r := EncodeStereo(encL, encR, left, right)
				for _, c := range []struct {
					dec     *Decoder
					payload []byte
					want    *img.Gray
				}{{decL, l, left}, {decR, r, right}} {
					got, err := c.dec.Decode(c.payload)
					if err != nil {
						t.Errorf("session %d frame %d: %v", s, i, err)
						return
					}
					if d := maxAbsDiff(c.want, got); d > encL.Deadzone {
						t.Errorf("session %d frame %d: error %d exceeds deadzone", s, i, d)
					}
				}
			}
		}(s)
	}
	wg.Wait()
}
