package feature

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"slamshare/internal/camera"
	"slamshare/internal/dataset"
	"slamshare/internal/img"
)

// updateGolden rewrites testdata/extract_golden.txt from the code under
// test. The committed file was recorded on the commit before the fast
// kernels landed; regenerate it only for a change that is meant to move
// keypoints.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/extract_golden.txt")

const goldenPath = "testdata/extract_golden.txt"

// goldenFrames are the dataset frame indices hashed per sequence.
var goldenFrames = []int{0, 2, 40, 120, 300}

// hashKeypoints is SHA-256 over every field of every keypoint as raw
// bits, in slice order.
func hashKeypoints(kps []Keypoint) string {
	h := sha256.New()
	var b [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for i := range kps {
		k := &kps[i]
		u64(math.Float64bits(k.X))
		u64(math.Float64bits(k.Y))
		u64(uint64(k.Level))
		u64(math.Float64bits(k.Angle))
		u64(math.Float64bits(k.Score))
		for _, w := range k.Desc {
			u64(w)
		}
		u64(math.Float64bits(k.Right))
		u64(math.Float64bits(k.Depth))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenCase is one hashed extraction: an image (right == nil) or a
// stereo pair whose left keypoints are hashed after StereoMatch.
type goldenCase struct {
	name        string
	cfg         Config
	left, right *img.Gray
	fx, bl      float64
}

func goldenCases() []goldenCase {
	var cases []goldenCase
	for _, seq := range []*dataset.Sequence{dataset.MH04(camera.Stereo), dataset.MH05(camera.Stereo)} {
		for _, f := range goldenFrames {
			l, r := seq.StereoFrame(f)
			cases = append(cases, goldenCase{
				name: fmt.Sprintf("%s/%d", seq.Name, f), cfg: DefaultConfig(),
				left: l, right: r, fx: seq.Rig.Intr.Fx, bl: seq.Rig.Baseline,
			})
		}
	}
	// Small images: 64x48 keeps two levels (the third is under 32 rows)
	// with rows narrower than 2*Border on the second; 33x33 keeps only
	// level 0, itself narrower than 2*Border.
	small := Config{NFeatures: 60, Levels: 4, ScaleFactor: 1.2, Threshold: 25, MinThreshold: 8, StripRows: 13}
	cases = append(cases,
		goldenCase{name: "texture/64x48", cfg: small, left: randomTexture(64, 48, 11)},
		goldenCase{name: "texture/33x33", cfg: small, left: randomTexture(33, 33, 12)},
		goldenCase{name: "texture/120x90", cfg: small, left: randomTexture(120, 90, 13)},
	)
	return cases
}

// goldenRun extracts (and for a pair, stereo-matches) one case and
// returns the hashed keypoint sets: left, then right for a pair.
func goldenRun(c goldenCase, par Parallelizer) [][]Keypoint {
	ex := &Extractor{Cfg: c.cfg, Par: par}
	left := ex.Extract(c.left)
	if c.right == nil {
		return [][]Keypoint{left}
	}
	right := ex.Extract(c.right)
	StereoMatchPar(left, right, c.fx, c.bl, 2, par)
	return [][]Keypoint{left, right}
}

func goldenKeys(c goldenCase) []string {
	if c.right == nil {
		return []string{c.name}
	}
	return []string{c.name + "/left+stereo", c.name + "/right"}
}

func readGolden(t *testing.T) map[string]string {
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatalf("golden file: %v (record it with -update-golden on a known-good commit)", err)
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			t.Fatalf("golden file: malformed line %q", line)
		}
		want[fields[0]] = fields[1] + " " + fields[2]
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("golden file: %v", err)
	}
	return want
}

// TestExtractGolden pins Extract + StereoMatch bit for bit against
// hashes recorded before the fast kernels replaced the scalar loops:
// same keypoints, same order, same angles, descriptors, disparities
// and depths, on the serial runner and on a concurrent one.
func TestExtractGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("renders dataset frames")
	}
	cases := goldenCases()
	if *updateGolden {
		var sb strings.Builder
		sb.WriteString("# case sha256(keypoints) count — see golden_test.go; recorded by -update-golden\n")
		for _, c := range cases {
			for i, kps := range goldenRun(c, SerialRunner{}) {
				fmt.Fprintf(&sb, "%s %s %d\n", goldenKeys(c)[i], hashKeypoints(kps), len(kps))
			}
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want := readGolden(t)
	// The oracles are pinned to the same recording, so an equivalence
	// test against them is a test against the parent commit.
	for _, c := range cases {
		for i, kps := range goldenRunRef(c) {
			if line := fmt.Sprintf("%s %d", hashKeypoints(kps), len(kps)); line != want[goldenKeys(c)[i]] {
				t.Errorf("%s: reference pipeline got %s, golden %s", goldenKeys(c)[i], line, want[goldenKeys(c)[i]])
			}
		}
	}
	var prev []Keypoint // the previous case's first result, and its hash
	var prevHash, prevName string
	for _, c := range cases {
		for _, r := range []struct {
			name string
			par  Parallelizer
		}{{"serial", SerialRunner{}}, {"goroutines", goRunner{}}} {
			got := goldenRun(c, r.par)
			for i, kps := range got {
				key := goldenKeys(c)[i]
				line := fmt.Sprintf("%s %d", hashKeypoints(kps), len(kps))
				if want[key] == "" {
					t.Errorf("%s: not in the golden file", key)
				} else if line != want[key] {
					t.Errorf("%s (%s): got %s, golden %s\n%s", key, r.name, line, want[key], firstDiff(c, i, kps))
				}
			}
			// Nothing Extract returns may alias pooled scratch: the
			// extractions above ran on other images since prev was
			// produced, so a result that aliased would have changed.
			if prev != nil && hashKeypoints(prev) != prevHash {
				t.Errorf("%s: keypoints changed after later extractions; Extract returned memory that aliases scratch", prevName)
			}
			prev, prevHash, prevName = got[0], hashKeypoints(got[0]), c.name
		}
	}
}

// firstDiff locates a golden mismatch: it reruns the case through the
// reference pipeline (the pre-optimization loops kept in ref_test.go)
// and reports the first keypoint where the code under test departs
// from it.
func firstDiff(c goldenCase, which int, got []Keypoint) string {
	ref := goldenRunRef(c)[which]
	n := len(ref)
	if len(got) < n {
		n = len(got)
	}
	for i := 0; i < n; i++ {
		if ref[i] != got[i] {
			return fmt.Sprintf("first differing keypoint %d:\n  reference %+v\n  got       %+v", i, ref[i], got[i])
		}
	}
	if len(ref) != len(got) {
		return fmt.Sprintf("reference has %d keypoints, got %d; the common prefix agrees", len(ref), len(got))
	}
	return "the reference pipeline agrees with the code under test: the golden file predates both"
}
