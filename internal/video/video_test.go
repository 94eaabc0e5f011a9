package video

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"math/rand"
	"runtime"
	"strings"
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
	// The same with a real but far too short DEFLATE stream behind it;
	// and a real inter payload behind a header far larger than its
	// frame, against a decoder that holds a reference of that size.
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
	// The best case the codec itself produces — a flat image, every
	// block plain — still decodes.
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

func TestDecodeStereo(t *testing.T) {
	// Two eyes at once must be two serial decodes, pixel for pixel, over
	// a stream that crosses from the intra frame into P-frames; a mono
	// pair decodes the left eye alone; a refused payload names its eye
	// and leaves the other stream decoded.
	seq := dataset.MH04(camera.Stereo)
	encL, encR := NewEncoder(), NewEncoder()
	decL, decR := NewDecoder(), NewDecoder()
	serL, serR := NewDecoder(), NewDecoder()
	var l, r []byte
	for i := 0; i < 6; i++ {
		left, right := seq.StereoFrame(2 * i)
		l, r = EncodeStereo(encL, encR, left, right)
		gl, gr, err := DecodeStereo(decL, decR, l, r)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		wl, _ := serL.Decode(l)
		wr, _ := serR.Decode(r)
		if !bytes.Equal(gl.Pix, wl.Pix) || !bytes.Equal(gr.Pix, wr.Pix) {
			t.Fatalf("frame %d: DecodeStereo differs from two serial Decode calls", i)
		}
	}
	left, right := seq.StereoFrame(12)
	l, r = EncodeStereo(encL, encR, left, right)
	if _, _, err := DecodeStereo(decL, decR, l, r[:len(r)-1]); !errors.Is(err, ErrCorrupt) || !strings.HasPrefix(err.Error(), "right eye") {
		t.Errorf("right payload cut short: err = %v, want ErrCorrupt from the right eye", err)
	}
	want, _ := serL.Decode(l)
	if !bytes.Equal(decL.recon.Pix, want.Pix) {
		t.Error("a refused right payload kept the left eye from decoding")
	}

	mono := dataset.V202(camera.Mono).Frame(0)
	before := runtime.NumGoroutine()
	gl, gr, err := DecodeStereo(NewDecoder(), NewDecoder(), EncodeImage(mono), nil)
	if err != nil || gr != nil || !bytes.Equal(gl.Pix, mono.Pix) {
		t.Errorf("mono: (%v, right %v, %v), want the left frame and no right", gl != nil, gr != nil, err)
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Errorf("mono: %d goroutines before, %d after", before, after)
	}
	if _, _, err := DecodeStereo(NewDecoder(), NewDecoder(), []byte{1}, nil); !errors.Is(err, ErrCorrupt) || !strings.HasPrefix(err.Error(), "left eye") {
		t.Errorf("mono, short payload: err = %v, want ErrCorrupt from the left eye", err)
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

// panStream returns a short 45×38 stream — an intra payload, then the
// P payloads that follow it — from a textured pan: frames with a
// partial last block row and column, some blocks skipped, some coded.
// The payloads stay small, so the fuzzer can minimize what it finds.
func panStream(t testing.TB) [][]byte {
	rng := rand.New(rand.NewSource(7))
	world := img.New(64, 48)
	for i := range world.Pix {
		x, y := i%world.W, i/world.W
		world.Pix[i] = byte(40*((x/6+y/5)%5) + rng.Intn(40))
	}
	enc := NewEncoder()
	var stream [][]byte
	for k := 0; k < 4; k++ {
		stream = append(stream, enc.Encode(pan(world, 3*k, k, 45, 38, rng)))
	}
	if !IsIntra(stream[0]) || IsIntra(stream[1]) {
		t.Fatal("want an intra payload, then P payloads")
	}
	return stream
}

// kind3 packs an inter payload's planes as the retired kind 3 did:
// the delta-coded vector bytes, the coded flags and the coded blocks'
// residuals, one DEFLATE stream behind a kind-3 header.
func kind3(t *testing.T, payload []byte) []byte {
	mvs, coded, resid := decodePlanes(t, payload)
	w, h := resid.W, resid.H
	bw := (w + blockSize - 1) / blockSize
	raw := append([]byte(nil), mvs...)
	for i := len(raw) - 2; i >= 2; i -= 2 {
		raw[i] -= raw[i-2]
		raw[i+1] -= raw[i-1]
	}
	raw = append(raw, coded...)
	for i, c := range coded {
		if c == 0 {
			continue
		}
		x0, y0 := i%bw*blockSize, i/bw*blockSize
		x1, y1 := blockEnd(x0, y0, w, h)
		for y := y0; y < y1; y++ {
			raw = append(raw, resid.Pix[y*w+x0:y*w+x1]...)
		}
	}
	buf := bytes.NewBuffer(newPayload(3, w, h, 0))
	zw, _ := flate.NewWriter(buf, 4)
	zw.Write(raw)
	zw.Close()
	return buf.Bytes()
}

// TestDecodeRejectsMalformedInter hands inter payloads that are one
// edit away from a real one to a decoder that holds the right
// reference (or, for one, none). Each must fail with ErrCorrupt and
// leave the reference as it was.
func TestDecodeRejectsMalformedInter(t *testing.T) {
	stream := panStream(t)
	p := stream[1]
	relabel := func(kind byte) []byte {
		q := append([]byte(nil), p...)
		q[0] = kind
		return q
	}
	ref := NewDecoder()
	if _, err := ref.Decode(stream[0]); err != nil {
		t.Fatal(err)
	}
	want, err := ref.Decode(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		payload []byte
		noRef   bool
	}{
		{"the same planes as a kind-3 payload", kind3(t, p), false},
		{"this layout labelled kind 2", relabel(2), false},
		{"this layout labelled kind 3", relabel(3), false},
		{"cut by one byte", p[:len(p)-1], false},
		{"one byte appended", append(p[:len(p):len(p)], 0), false},
		{"shorter than the flush", p[:9+rcFlush-1], false},
		{"no reference", p, true},
	} {
		dec := NewDecoder()
		if !c.noRef {
			if _, err := dec.Decode(stream[0]); err != nil {
				t.Fatal(err)
			}
		}
		if f, err := dec.Decode(c.payload); !errors.Is(err, ErrCorrupt) || f != nil {
			t.Errorf("%s: Decode = (frame %v, %v), want ErrCorrupt and no frame", c.name, f != nil, err)
		}
		if c.noRef {
			if dec.recon != nil {
				t.Errorf("%s: the refused payload left a reference", c.name)
			}
			continue
		}
		// The reference is untouched: the real P payload still decodes
		// as it does in an unbroken stream.
		if got, err := dec.Decode(p); err != nil || !bytes.Equal(got.Pix, want.Pix) {
			t.Errorf("%s: the stream does not resume after the refused payload (%v)", c.name, err)
		}
	}
}

// refusedUnread reports whether decodePayload must refuse payload
// before it allocates: an intra header that declares more than its
// bytes can inflate to, or an inter payload, against a reference of its
// size, shorter than the coder's flush.
func refusedUnread(payload []byte, ref *img.Gray) bool {
	if len(payload) < 9 {
		return false
	}
	w := int(binary.LittleEndian.Uint32(payload[1:]))
	h := int(binary.LittleEndian.Uint32(payload[5:]))
	if w <= 0 || h <= 0 || w > 1<<14 || h > 1<<14 {
		return false
	}
	switch payload[0] {
	case frameIntra:
		return int64(w)*int64(h) > maxInflate*int64(len(payload)-9)+inflateSlack
	case frameInter:
		return ref != nil && ref.W == w && ref.H == h && len(payload)-9 < rcFlush
	}
	return false
}

// FuzzDecode feeds arbitrary bytes to a decoder that holds a valid
// intra reference, as a server's decoder reads them off the network.
// Decode must not panic. It returns a frame of the header's size, or
// ErrCorrupt with the reference untouched; and a payload refused for
// its length is refused with nothing allocated.
func FuzzDecode(f *testing.F) {
	stream := panStream(f)
	for _, p := range stream {
		f.Add(p)
		f.Add(p[:len(p)-1])
		f.Add(p[:len(p)/2])
		f.Add(p[:10])
		f.Add(p[:9])
	}
	f.Add([]byte{frameIntra, 0, 0x40, 0, 0, 0, 0x40, 0, 0, 0x78})
	ref := NewDecoder()
	if _, err := ref.Decode(stream[0]); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		dec := &Decoder{recon: ref.recon.Clone()}
		if refusedUnread(payload, dec.recon) {
			// testing.AllocsPerRun stalls the fuzzing engine; one
			// reading either side of the call does not.
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			_, err := dec.Decode(payload)
			runtime.ReadMemStats(&m1)
			if allocs := m1.Mallocs - m0.Mallocs; allocs != 0 {
				t.Fatalf("refusing a %d-byte payload took %d allocations", len(payload), allocs)
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("payload too short for its header: err = %v, want ErrCorrupt", err)
			}
			return
		}
		got, err := dec.Decode(payload)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("err = %v, want ErrCorrupt", err)
			}
			if !bytes.Equal(dec.recon.Pix, ref.recon.Pix) {
				t.Fatal("a refused payload changed the reference")
			}
			return
		}
		w := int(binary.LittleEndian.Uint32(payload[1:]))
		h := int(binary.LittleEndian.Uint32(payload[5:]))
		if got.W != w || got.H != h || len(got.Pix) != w*h {
			t.Fatalf("decoded a %dx%d frame (%d pixels) from a %dx%d header", got.W, got.H, len(got.Pix), w, h)
		}
	})
}

// FuzzInterRoundTrip builds arbitrary inter planes — a frame of up to
// 48×48 pixels, any vector bytes, coded flags of 0 or 1 and residual
// blocks of any bytes, coded blocks whose residual is all zero
// included — and requires the decoder to return exactly them from the
// encoder's payload, read to its last byte.
func FuzzInterRoundTrip(f *testing.F) {
	f.Add(byte(45), byte(38), []byte{64, 64, 1, 0, 0, 7, 250})
	f.Add(byte(7), byte(1), []byte{})
	f.Add(byte(16), byte(16), []byte{0x80, 0x7f, 1, 0x80, 0x7f, 0x81, 1, 0})
	for _, p := range panStream(f)[1:] {
		f.Add(byte(45), byte(38), p[9:])
	}
	f.Fuzz(func(t *testing.T, wb, hb byte, data []byte) {
		w, h := 1+int(wb)%48, 1+int(hb)%48
		bw := (w + blockSize - 1) / blockSize
		blocks := bw * ((h + blockSize - 1) / blockSize)
		// next deals out data's bytes, then zeros.
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		mvs, coded := make([]byte, 2*blocks), make([]byte, blocks)
		want := img.New(w, h) // the residuals, where decodePlanes puts them
		var resid []byte
		for i := 0; i < blocks; i++ {
			mvs[2*i], mvs[2*i+1] = next(), next()
			coded[i] = next() & 1
			if coded[i] == 0 {
				continue
			}
			x0, y0 := i%bw*blockSize, i/bw*blockSize
			x1, y1 := blockEnd(x0, y0, w, h)
			for y := y0; y < y1; y++ {
				for x := x0; x < x1; x++ {
					want.Pix[y*w+x] = next()
					resid = append(resid, want.Pix[y*w+x])
				}
			}
		}
		payload := encodeInter(new(rcEncoder), newPayload(frameInter, w, h, 0), w, h, mvs, coded, resid)
		gotMVs, gotCoded, got := decodePlanes(t, payload)
		if !bytes.Equal(gotMVs, mvs) || !bytes.Equal(gotCoded, coded) || !bytes.Equal(got.Pix, want.Pix) {
			t.Fatalf("%dx%d: the planes do not round-trip", w, h)
		}
	})
}
