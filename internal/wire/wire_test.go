package wire

import (
	"errors"
	"hash/crc32"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"slamshare/internal/bow"
	"slamshare/internal/codec"
	"slamshare/internal/feature"
	"slamshare/internal/geom"
	"slamshare/internal/smap"
)

func randomMap(seed int64, nkf, nkp, nmp int) *smap.Map {
	rng := rand.New(rand.NewSource(seed))
	m := smap.NewMap(bow.Default())
	alloc := smap.NewIDAllocator(3)
	var kfIDs []smap.ID
	for k := 0; k < nkf; k++ {
		kps := make([]feature.Keypoint, nkp)
		for i := range kps {
			var d feature.Descriptor
			for w := range d {
				d[w] = rng.Uint64()
			}
			l := rng.Intn(4)
			s, _ := feature.LevelScale(l)
			kps[i] = feature.Keypoint{
				X: feature.FromGrid(rng.Intn(400), s), Y: feature.FromGrid(rng.Intn(230), s),
				Level: l, Angle: rng.Float64(),
				Score: float64(rng.Intn(100)), Right: -1, Desc: d,
			}
			if i%2 == 1 { // stereo-matched
				kps[i].Right, kps[i].Depth = kps[i].X-rng.Float64()*40, rng.Float64()*10
			}
		}
		kf := &smap.KeyFrame{
			ID: alloc.Next(), Client: 3, Stamp: float64(k) / 30,
			FrameIdx: k * 5,
			Tcw: geom.SE3{
				R: geom.QuatFromAxisAngle(geom.Vec3{X: 1, Y: 2, Z: 3}, rng.Float64()),
				T: geom.Vec3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()},
			},
			Keypoints: kps,
		}
		m.AddKeyFrame(kf)
		kfIDs = append(kfIDs, kf.ID)
	}
	for p := 0; p < nmp; p++ {
		var d feature.Descriptor
		for w := range d {
			d[w] = rng.Uint64()
		}
		mp := &smap.MapPoint{
			ID: alloc.Next(), Client: 3,
			Pos:    geom.Vec3{X: rng.NormFloat64() * 5, Y: rng.NormFloat64() * 5, Z: rng.NormFloat64() * 5},
			Desc:   d,
			Normal: geom.Vec3{Z: 1},
			RefKF:  kfIDs[p%len(kfIDs)],
		}
		m.AddMapPoint(mp)
		_ = m.AddObservation(kfIDs[p%len(kfIDs)], mp.ID, p%nkp)
	}
	for _, id := range kfIDs {
		m.UpdateConnections(id, 1)
	}
	return m
}

func TestMapRoundTrip(t *testing.T) {
	m := randomMap(1, 5, 50, 80)
	data := EncodeMap(m)
	got, err := DecodeMap(data, bow.Default())
	if err != nil {
		t.Fatal(err)
	}
	if got.NKeyFrames() != m.NKeyFrames() || got.NMapPoints() != m.NMapPoints() {
		t.Fatalf("size mismatch: %d/%d vs %d/%d",
			got.NKeyFrames(), got.NMapPoints(), m.NKeyFrames(), m.NMapPoints())
	}
	for _, kf := range m.KeyFrames() {
		g, ok := got.KeyFrame(kf.ID)
		if !ok {
			t.Fatalf("keyframe %d missing", kf.ID)
		}
		if g.Tcw.T.Dist(kf.Tcw.T) > 1e-12 || g.Tcw.R.AngleTo(kf.Tcw.R) > 1e-12 {
			t.Fatal("pose corrupted")
		}
		if len(g.Keypoints) != len(kf.Keypoints) {
			t.Fatal("keypoint count corrupted")
		}
		for i := range g.Keypoints {
			if g.Keypoints[i].Desc != kf.Keypoints[i].Desc {
				t.Fatal("descriptor corrupted")
			}
			if g.MapPoints[i] != kf.MapPoints[i] {
				t.Fatal("binding corrupted")
			}
		}
		if len(g.Conns) != len(kf.Conns) {
			t.Fatal("covisibility corrupted")
		}
	}
	for _, mp := range m.MapPoints() {
		g, ok := got.MapPoint(mp.ID)
		if !ok {
			t.Fatalf("map point %d missing", mp.ID)
		}
		if g.Pos.Dist(mp.Pos) > 1e-12 {
			t.Fatal("position corrupted")
		}
		if len(g.Obs) != len(mp.Obs) {
			t.Fatal("observations corrupted")
		}
	}
}

func TestDecodeRejectsCorrupt(t *testing.T) {
	m := randomMap(2, 2, 20, 10)
	data := EncodeMap(m)
	if _, err := DecodeMap(data[:len(data)/2], bow.Default()); err == nil {
		t.Error("truncated map accepted")
	}
	if _, err := DecodeMap([]byte{1, 2, 3}, bow.Default()); err == nil {
		t.Error("garbage accepted")
	}
	bad := append([]byte{}, data...)
	bad[0] ^= 0xFF
	if _, err := DecodeMap(bad, bow.Default()); err == nil {
		t.Error("bad magic accepted")
	}
}

func TestDecodeRejectsVersionMismatch(t *testing.T) {
	m := randomMap(12, 2, 20, 10)
	data := EncodeMap(m)
	// The version byte sits right after the 4-byte magic.
	stale := append([]byte{}, data...)
	stale[4] = FormatVersion + 1
	_, err := DecodeMap(stale, bow.Default())
	if !errors.Is(err, ErrVersion) {
		t.Errorf("future version accepted: %v", err)
	}
	stale[4] = 0
	if _, err := DecodeMap(stale, bow.Default()); !errors.Is(err, ErrVersion) {
		t.Errorf("version 0 accepted: %v", err)
	}

	// A region file is CRC-framed, so the stale version byte only
	// reaches the version check under a recomputed checksum.
	kfs, mps := m.KeyFrames(), m.MapPoints()
	rd := EncodeRegion(7, kfs, mps)
	rd[4] = FormatVersion + 9
	w := codec.Writer{B: rd[:len(rd)-4]}
	w.U32(crc32.ChecksumIEEE(w.B))
	if _, _, _, err := DecodeRegion(w.B); !errors.Is(err, ErrVersion) {
		t.Errorf("stale region version accepted: %v", err)
	}
}

func TestDecodeBoundsAllocations(t *testing.T) {
	// A tiny input claiming millions of entries must be rejected by
	// the count guards, not over-allocated.
	m := randomMap(13, 1, 4, 2)
	data := EncodeMap(m)
	for _, off := range []int{5} { // the keyframe-count field
		bad := append([]byte{}, data[:off]...)
		bad = append(bad, 0xFF, 0xFF, 0x3F, 0x00) // ~4M entries
		if _, err := DecodeMap(bad, bow.Default()); err == nil {
			t.Errorf("oversized count at %d accepted", off)
		}
	}
}

func TestKeyFrameAndMapPointRoundTrip(t *testing.T) {
	m := randomMap(14, 3, 40, 60)
	for _, kf := range m.KeyFrames() {
		data := EncodeKeyFrame(kf)
		got, n, err := DecodeKeyFrame(data)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(data) {
			t.Fatalf("consumed %d of %d", n, len(data))
		}
		// Version 2 keyframes are exact: every keypoint field and BoW
		// weight decodes to the bits it was encoded from.
		if got.ID != kf.ID || got.Tcw != kf.Tcw || !reflect.DeepEqual(got.Keypoints, kf.Keypoints) ||
			!reflect.DeepEqual(got.Bow, kf.Bow) || len(got.Conns) != len(kf.Conns) {
			t.Fatalf("keyframe %d corrupted", kf.ID)
		}
		for i := range got.MapPoints {
			if got.MapPoints[i] != kf.MapPoints[i] {
				t.Fatal("binding corrupted")
			}
		}
	}
	for _, mp := range m.MapPoints() {
		data := EncodeMapPoint(mp)
		got, n, err := DecodeMapPoint(data)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(data) || got.ID != mp.ID || got.Pos.Dist(mp.Pos) > 1e-12 || len(got.Obs) != len(mp.Obs) {
			t.Fatalf("map point %d corrupted", mp.ID)
		}
	}
	// No words still decode to a non-nil vector, so inserting the
	// keyframe does not recompute it.
	bare := &smap.KeyFrame{ID: 9, Bow: bow.Vec{}}
	if got, _, err := DecodeKeyFrame(EncodeKeyFrame(bare)); err != nil {
		t.Fatal(err)
	} else if got.Bow == nil {
		t.Error("keyframe with no words decoded a nil BoW vector")
	}
	if _, _, err := DecodeKeyFrame([]byte{1, 2, 3}); err == nil {
		t.Error("truncated keyframe accepted")
	}
	if _, _, err := DecodeMapPoint(nil); err == nil {
		t.Error("empty map point accepted")
	}
}

// TestEncodeKeyFramePanicsOffGrid: a keypoint the exact record cannot
// carry is a bug in whatever made it, and the encoder says which field.
func TestEncodeKeyFramePanicsOffGrid(t *testing.T) {
	kf := &smap.KeyFrame{ID: 1, Keypoints: []feature.Keypoint{{X: 10.5, Y: 4, Right: -1}}, MapPoints: []smap.ID{0}}
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "keypoint X 10.5") {
			t.Errorf("panic %q does not name X", msg)
		}
	}()
	EncodeKeyFrame(kf)
}

// TestEncodeMapBesideMutations: a checkpoint encodes the live map
// while sessions keep editing its relations. The encoder reads a
// snapshot taken at one cut, so every encoding decodes: no relation is
// caught mid-edit, out of order. Run it under -race.
func TestEncodeMapBesideMutations(t *testing.T) {
	m := randomMap(10, 4, 60, 0)
	kfs := m.KeyFrames()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		alloc := smap.NewIDAllocator(9)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			mp := &smap.MapPoint{ID: alloc.Next(), RefKF: kfs[0].ID}
			m.AddMapPoint(mp)
			for k, kf := range kfs {
				_ = m.AddObservation(kf.ID, mp.ID, (i+k)%60)
			}
			m.UpdateConnections(kfs[i%len(kfs)].ID, 1)
			if i%2 == 0 {
				m.EraseMapPoint(mp.ID)
			}
		}
	}()
	for i := 0; i < 50; i++ {
		if _, err := DecodeMap(EncodeMap(m), nil); err != nil {
			t.Errorf("encoding %d of a map under mutation: %v", i, err)
			break
		}
	}
	close(stop)
	wg.Wait()
}

func TestMapSizeGrowsLinearly(t *testing.T) {
	// Table 1's shape: size grows roughly linearly with keyframes.
	s1 := MapSize(randomMap(3, 5, 100, 200))
	s2 := MapSize(randomMap(4, 10, 100, 400))
	s4 := MapSize(randomMap(5, 20, 100, 800))
	if s2 <= s1 || s4 <= s2 {
		t.Fatalf("sizes not growing: %d %d %d", s1, s2, s4)
	}
	ratio := float64(s4-s2) / float64(s2-s1)
	if ratio < 1.5 || ratio > 2.5 {
		t.Errorf("growth not linear-ish: %d %d %d (ratio %.2f)", s1, s2, s4, ratio)
	}
}

func BenchmarkEncodeMap(b *testing.B) {
	m := randomMap(6, 20, 500, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EncodeMap(m)
	}
}

func BenchmarkDecodeMap(b *testing.B) {
	m := randomMap(7, 20, 500, 2000)
	data := EncodeMap(m)
	voc := bow.Default()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeMap(data, voc); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDecodeMapAllocs pins DecodeMap's allocation count on the
// benchmark's map: a relation decodes into one slice, not a Go map per
// entity. What remains is one struct and one observer slice per point
// and the BoW index's posting lists.
func TestDecodeMapAllocs(t *testing.T) {
	data := EncodeMap(randomMap(7, 20, 500, 2000))
	voc := bow.Default()
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := DecodeMap(data, voc); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("DecodeMap: %.0f allocs/op", allocs)
	if allocs > 13000 {
		t.Errorf("DecodeMap allocates %.0f/op, want <= 13000; a relation decodes into one slice", allocs)
	}
}

// TestDecodeRejectsUnsortedRelations: a relation arrives from a
// checkpoint, a journal record, a region file or a peer shard's
// boundary region, and every reader holds it in ascending ID order. A
// decoder rejects one that is not strictly ascending rather than keep
// one of two duplicates or hand the map an order it never stores.
func TestDecodeRejectsUnsortedRelations(t *testing.T) {
	kps := make([]feature.Keypoint, 2)
	goodKF := func() *smap.KeyFrame {
		return &smap.KeyFrame{ID: 1, Tcw: geom.IdentitySE3(), Keypoints: kps, MapPoints: []smap.ID{5, 0},
			Bow:   bow.Vec{{Word: 3, Weight: 0.5}, {Word: 9, Weight: 0.5}},
			Conns: []smap.Conn{{KF: 10, Weight: 2}, {KF: 20, Weight: 1}}}
	}
	goodMP := func() *smap.MapPoint {
		return &smap.MapPoint{ID: 5, RefKF: 1, Obs: []smap.ObsEntry{{KF: 1, Idx: 0}, {KF: 7, Idx: 1}}}
	}
	cases := []struct {
		name    string
		corrupt func(kf *smap.KeyFrame, mp *smap.MapPoint)
	}{
		{"valid", func(*smap.KeyFrame, *smap.MapPoint) {}},
		{"duplicate word", func(kf *smap.KeyFrame, _ *smap.MapPoint) { kf.Bow[1].Word = 3 }},
		{"descending covisibility", func(kf *smap.KeyFrame, _ *smap.MapPoint) { kf.Conns[0].KF = 30 }},
		{"duplicate observer", func(_ *smap.KeyFrame, mp *smap.MapPoint) { mp.Obs[1].KF = 1 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			kf, mp := goodKF(), goodMP()
			c.corrupt(kf, mp)
			m := smap.NewMap(nil)
			m.AddKeyFrame(kf)
			m.AddMapPoint(mp)
			check := func(path string, err error) {
				t.Helper()
				if c.name == "valid" {
					if err != nil {
						t.Errorf("%s: valid relations rejected: %v", path, err)
					}
				} else if !errors.Is(err, ErrCorrupt) {
					t.Errorf("%s: err = %v, want ErrCorrupt", path, err)
				}
			}
			_, err := DecodeMap(EncodeMap(m), nil)
			check("checkpoint map", err)
			_, _, _, err = DecodeRegion(EncodeRegion(1, []*smap.KeyFrame{kf}, []*smap.MapPoint{mp}))
			check("region", err)
			_, _, errKF := DecodeKeyFrame(EncodeKeyFrame(kf))
			_, _, errMP := DecodeMapPoint(EncodeMapPoint(mp))
			check("journal records", errors.Join(errKF, errMP))
		})
	}
}

func TestDecodeNeverPanicsOnTruncation(t *testing.T) {
	// Any truncation of a valid encoding must fail cleanly, not panic.
	m := randomMap(8, 3, 30, 40)
	data := EncodeMap(m)
	step := len(data)/64 + 1
	for cut := 0; cut < len(data); cut += step {
		if _, err := DecodeMap(data[:cut], bow.Default()); err == nil && cut < len(data)-1 {
			t.Fatalf("truncation at %d/%d accepted", cut, len(data))
		}
	}
}

func TestDecodeNeverPanicsOnBitFlips(t *testing.T) {
	m := randomMap(9, 2, 20, 20)
	data := EncodeMap(m)
	for i := 4; i < len(data); i += len(data)/48 + 1 {
		corrupted := append([]byte(nil), data...)
		corrupted[i] ^= 0xFF
		// Must not panic; error or a structurally valid (if wrong) map
		// are both acceptable outcomes.
		_, _ = DecodeMap(corrupted, bow.Default())
	}
}
