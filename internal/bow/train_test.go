package bow

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"

	"slamshare/internal/feature"
)

// treeHash is an FNV-1a hash of a vocabulary's whole tree: every node's
// centroid, childStart, childCount and leafWord, then the word count.
func treeHash(v *Vocabulary) uint64 {
	var b []byte
	for i, c := range v.centroids {
		for _, w := range c {
			b = binary.LittleEndian.AppendUint64(b, w)
		}
		b = binary.LittleEndian.AppendUint32(b, uint32(v.childStart[i]))
		b = binary.LittleEndian.AppendUint32(b, uint32(v.childCount[i]))
		b = binary.LittleEndian.AppendUint32(b, uint32(v.leafWord[i]))
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(v.words))
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// defaultTreeHash is treeHash(Default()) as the bit-by-bit trainer
// built it (4 562 nodes, 3 977 words). Word IDs reach every BoW vector,
// journal record and downstream golden, so a change here is a change of
// vocabulary.
const defaultTreeHash = 0xded7a277b11f08b0

func TestDefaultVocabularyGolden(t *testing.T) {
	v := Default()
	if h := treeHash(v); h != defaultTreeHash {
		t.Errorf("Default() tree hash = %#016x (%d nodes, %d words), want %#016x",
			h, len(v.centroids), v.Words(), uint64(defaultTreeHash))
	}
}

// sameTree reports the first difference between two vocabularies'
// trees, or "" if they are equal to the bit.
func sameTree(got, want *Vocabulary) string {
	switch {
	case got.K != want.K || got.Depth != want.Depth:
		return fmt.Sprintf("k, depth = %d, %d, want %d, %d", got.K, got.Depth, want.K, want.Depth)
	case got.words != want.words:
		return fmt.Sprintf("words = %d, want %d", got.words, want.words)
	case len(got.centroids) != len(want.centroids):
		return fmt.Sprintf("%d nodes, want %d", len(got.centroids), len(want.centroids))
	}
	for i := range want.centroids {
		if got.centroids[i] != want.centroids[i] || got.childStart[i] != want.childStart[i] ||
			got.childCount[i] != want.childCount[i] || got.leafWord[i] != want.leafWord[i] {
			return fmt.Sprintf("node %d = %x start %d count %d leaf %d, want %x start %d count %d leaf %d", i,
				got.centroids[i], got.childStart[i], got.childCount[i], got.leafWord[i],
				want.centroids[i], want.childStart[i], want.childCount[i], want.leafWord[i])
		}
	}
	return ""
}

// trainCorpus draws n descriptors of one kind: "random" (uniform),
// "dups" (a few distinct descriptors, repeated: tied distances and
// empty clusters that force re-seeding), "zeros" and "ones" (one
// descriptor n times: every member in one cluster, every lane of the
// ones at its limit).
func trainCorpus(kind string, n int, seed int64) []feature.Descriptor {
	rng := rand.New(rand.NewSource(seed))
	out := make([]feature.Descriptor, n)
	switch kind {
	case "random":
		for i := range out {
			out[i] = randDesc(rng)
		}
	case "dups":
		base := []feature.Descriptor{randDesc(rng), randDesc(rng), randDesc(rng)}
		for i := range out {
			out[i] = base[rng.Intn(len(base))]
			if rng.Intn(8) == 0 {
				out[i] = perturb(out[i], 3, rng)
			}
		}
	case "ones":
		for i := range out {
			out[i] = feature.Descriptor{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}
		}
	}
	return out
}

// TestTrainMatchesRef: Train builds the reference trainer's tree to
// the bit, on corpus sizes either side of a byte lane's 255-member
// flush, and leaves its input as it was.
func TestTrainMatchesRef(t *testing.T) {
	sizes := []int{1, 0, 0, 254, 255, 256, 511} // 0s: k and k+1
	for _, kind := range []string{"random", "dups", "zeros", "ones"} {
		for _, k := range []int{2, 3, 8} {
			sizes[1], sizes[2] = k, k+1
			for _, n := range sizes {
				for depth := 1; depth <= 5; depth++ {
					descs := trainCorpus(kind, n, int64(n*10+k))
					in := slices.Clone(descs)
					seed := int64(depth*100 + k)
					if d := sameTree(Train(descs, k, depth, seed), trainRef(in, k, depth, seed)); d != "" {
						t.Fatalf("%s n=%d k=%d depth=%d: %s", kind, n, k, depth, d)
					}
					if !slices.Equal(descs, in) {
						t.Fatalf("%s n=%d k=%d depth=%d: Train modified its input", kind, n, k, depth)
					}
				}
			}
		}
	}
	if testing.Short() {
		return
	}
	// The Default corpus size; k=8, depth 4 is Default itself, which
	// TestDefaultVocabularyGolden pins.
	for _, kind := range []string{"random", "dups"} {
		for _, k := range []int{2, 3} {
			descs := trainCorpus(kind, 6000, int64(k))
			if d := sameTree(Train(descs, k, 5, 7), trainRef(descs, k, 5, 7)); d != "" {
				t.Fatalf("%s n=6000 k=%d depth=5: %s", kind, k, d)
			}
		}
	}
}

// FuzzTrainMatchesRef: Train against the reference trainer on small
// corpora of random, repeated and near-repeated descriptors.
func FuzzTrainMatchesRef(f *testing.F) {
	f.Add(int64(1), uint16(300), uint8(6), uint8(3), uint8(0))
	f.Add(int64(2), uint16(255), uint8(1), uint8(4), uint8(1))
	f.Add(int64(3), uint16(511), uint8(0), uint8(2), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, k, depth, distinct uint8) {
		nd, kk, dd := int(n%600)+1, int(k%8)+2, int(depth%5)+1
		rng := rand.New(rand.NewSource(seed))
		// distinct 0 draws uniform descriptors, else members are drawn
		// from that many bases, some perturbed by a few bits.
		var base []feature.Descriptor
		for range distinct % 16 {
			base = append(base, randDesc(rng))
		}
		descs := make([]feature.Descriptor, nd)
		for i := range descs {
			if len(base) == 0 {
				descs[i] = randDesc(rng)
				continue
			}
			descs[i] = base[rng.Intn(len(base))]
			if rng.Intn(4) == 0 {
				descs[i] = perturb(descs[i], rng.Intn(8), rng)
			}
		}
		if d := sameTree(Train(descs, kk, dd, seed), trainRef(descs, kk, dd, seed)); d != "" {
			t.Fatalf("n=%d k=%d depth=%d: %s", nd, kk, dd, d)
		}
	})
}

// TestTrainAllocs pins Train's scratch discipline: assignments, bit
// counts, member runs and centroids are allocated once per call, not
// per node and iteration. What is left is mostly one rng.Perm per node
// with more than k members, and the tree's own growth: 568 allocations
// on the Default corpus, where the bit-by-bit trainer made 23 956.
func TestTrainAllocs(t *testing.T) {
	descs := defaultCorpus()
	allocs := testing.AllocsPerRun(2, func() { Train(descs, 8, 4, 0xB0CA) })
	t.Logf("Train on the Default corpus: %.0f allocs/op", allocs)
	if allocs > 600 {
		t.Errorf("Train allocates %.0f/op on the Default corpus, want <= 600; scratch reuse regressed", allocs)
	}
}

// BenchmarkTrainDefault trains Default's vocabulary from its corpus.
func BenchmarkTrainDefault(b *testing.B) {
	descs := defaultCorpus()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trainSink = Train(descs, 8, 4, 0xB0CA)
	}
}

var trainSink *Vocabulary
