package wire

import (
	"encoding/binary"
	"testing"

	"slamshare/internal/bow"
	"slamshare/internal/smap"
)

// checkDecoded holds successfully decoded entities to what a reload
// relies on: binding slices sized to keypoints, and every relation by
// strictly ascending ID.
func checkDecoded(t *testing.T, kfs []*smap.KeyFrame, mps []*smap.MapPoint) {
	t.Helper()
	for _, kf := range kfs {
		if len(kf.MapPoints) != len(kf.Keypoints) {
			t.Fatalf("keyframe %d: %d bindings for %d keypoints",
				kf.ID, len(kf.MapPoints), len(kf.Keypoints))
		}
		for i := 1; i < len(kf.Bow); i++ {
			if kf.Bow[i].Word <= kf.Bow[i-1].Word {
				t.Fatalf("keyframe %d: BoW words out of order: %v", kf.ID, kf.Bow)
			}
		}
		for i := 1; i < len(kf.Conns); i++ {
			if kf.Conns[i].KF <= kf.Conns[i-1].KF {
				t.Fatalf("keyframe %d: covisibility edges out of order: %v", kf.ID, kf.Conns)
			}
		}
	}
	for _, mp := range mps {
		for i := 1; i < len(mp.Obs); i++ {
			if mp.Obs[i].KF <= mp.Obs[i-1].KF {
				t.Fatalf("map point %d: observers out of order: %v", mp.ID, mp.Obs)
			}
		}
	}
}

// FuzzDecodeMap hammers the map decoder with arbitrary bytes: it must
// return an error or a structurally valid map — never panic and never
// over-allocate (the count guards bound every allocation by the bytes
// actually present, so even a 16 MiB fuzz input cannot request more
// than its own length in slices).
func FuzzDecodeMap(f *testing.F) {
	voc := bow.Default()
	// Seed corpus: valid encodings of varied shapes, plus classic
	// corruptions of each.
	for seed := int64(1); seed <= 3; seed++ {
		m := randomMap(seed, int(seed)+1, 10*int(seed), 8*int(seed))
		data := EncodeMap(m)
		f.Add(data)
		f.Add(data[:len(data)/2])
		f.Add(data[:5])
		flipped := append([]byte(nil), data...)
		flipped[len(flipped)/3] ^= 0xFF
		f.Add(flipped)
		// Absurd keyframe count with no backing bytes.
		huge := append([]byte(nil), data[:9]...)
		huge = binary.LittleEndian.AppendUint32(huge, 1<<21)
		f.Add(huge)
	}
	f.Add([]byte{})
	f.Add([]byte("SLAMSLAMSLAMSLAM"))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeMap(data, voc)
		if err != nil {
			if m != nil {
				t.Fatal("non-nil map returned with error")
			}
			return
		}
		checkDecoded(t, m.KeyFrames(), m.MapPoints())
	})
}

// FuzzDecodeRegion hammers the evicted-region checkpoint decoder: a
// truncated or corrupt region file must decode to an error — the
// lifecycle manager then degrades to a re-map — never a panic or an
// over-allocation.
func FuzzDecodeRegion(f *testing.F) {
	for seed := int64(1); seed <= 3; seed++ {
		m := randomMap(seed, int(seed)+1, 8*int(seed), 6*int(seed))
		data := EncodeRegion(uint64(seed), m.KeyFrames(), m.MapPoints())
		f.Add(data)
		f.Add(data[:len(data)/2])
		f.Add(data[:len(data)-4]) // CRC stripped
		flipped := append([]byte(nil), data...)
		flipped[len(flipped)/3] ^= 0xFF
		f.Add(flipped)
		// Absurd keyframe count with no backing bytes.
		huge := append([]byte(nil), data[:17]...)
		huge = binary.LittleEndian.AppendUint32(huge, 1<<21)
		f.Add(huge)
	}
	f.Add([]byte{})
	f.Add([]byte("SLRGSLRGSLRGSLRGSLRG"))

	f.Fuzz(func(t *testing.T, data []byte) {
		_, kfs, mps, err := DecodeRegion(data)
		if err != nil {
			if kfs != nil || mps != nil {
				t.Fatal("non-nil entities returned with error")
			}
			return
		}
		checkDecoded(t, kfs, mps)
	})
}

// FuzzDecodeKeyFrame covers the journal-record entity decoder the
// persistence layer replays on recovery.
func FuzzDecodeKeyFrame(f *testing.F) {
	m := randomMap(4, 2, 12, 6)
	for _, kf := range m.KeyFrames() {
		data := EncodeKeyFrame(kf)
		f.Add(data)
		f.Add(data[:len(data)-3])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		kf, n, err := DecodeKeyFrame(data)
		if err == nil {
			if n > len(data) {
				t.Fatalf("consumed %d of %d bytes", n, len(data))
			}
			checkDecoded(t, []*smap.KeyFrame{kf}, nil)
		}
	})
}
