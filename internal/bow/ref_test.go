package bow

// Train and kMedians as they stood before the majority bits were
// counted a byte at a time, kept verbatim (names suffixed Ref) as the
// oracle TestTrainMatchesRef and FuzzTrainMatchesRef compare against.

import (
	"math/rand"

	"slamshare/internal/feature"
)

// trainRef builds a vocabulary by recursive k-medians clustering (Hamming
// metric, majority-bit centroids) of the training descriptors.
func trainRef(descs []feature.Descriptor, k, depth int, seed int64) *Vocabulary {
	if k < 2 {
		k = 2
	}
	if depth < 1 {
		depth = 1
	}
	v := &Vocabulary{K: k, Depth: depth}
	rng := rand.New(rand.NewSource(seed))
	// Root is a virtual node: its children are the first-level
	// clusters. Build breadth-first.
	v.centroids = append(v.centroids, feature.Descriptor{}) // root placeholder
	v.childStart = append(v.childStart, 0)
	v.childCount = append(v.childCount, 0)
	v.leafWord = append(v.leafWord, -1)
	type job struct {
		node  int
		descs []feature.Descriptor
		level int
	}
	queue := []job{{node: 0, descs: descs, level: 0}}
	for len(queue) > 0 {
		j := queue[0]
		queue = queue[1:]
		if j.level >= depth || len(j.descs) <= 1 {
			// Leaf: assign a word id.
			v.leafWord[j.node] = int32(v.words)
			v.words++
			continue
		}
		cents, groups := kMediansRef(j.descs, k, rng)
		v.childStart[j.node] = int32(len(v.centroids))
		v.childCount[j.node] = int32(len(cents))
		for c := range cents {
			v.centroids = append(v.centroids, cents[c])
			v.childStart = append(v.childStart, 0)
			v.childCount = append(v.childCount, 0)
			v.leafWord = append(v.leafWord, -1)
			queue = append(queue, job{
				node:  len(v.centroids) - 1,
				descs: groups[c],
				level: j.level + 1,
			})
		}
	}
	return v
}

// kMediansRef clusters descs into at most k groups and returns the
// majority-bit centroids and member groups. Empty clusters are
// dropped.
func kMediansRef(descs []feature.Descriptor, k int, rng *rand.Rand) ([]feature.Descriptor, [][]feature.Descriptor) {
	if len(descs) <= k {
		groups := make([][]feature.Descriptor, len(descs))
		cents := make([]feature.Descriptor, len(descs))
		for i, d := range descs {
			cents[i] = d
			groups[i] = []feature.Descriptor{d}
		}
		return cents, groups
	}
	// Init: k distinct random members.
	cents := make([]feature.Descriptor, k)
	perm := rng.Perm(len(descs))
	for i := 0; i < k; i++ {
		cents[i] = descs[perm[i]]
	}
	assign := make([]int, len(descs))
	for iter := 0; iter < 8; iter++ {
		changed := false
		for i, d := range descs {
			best, bestD := 0, 1<<30
			for c := range cents {
				if dd := feature.Distance(d, cents[c]); dd < bestD {
					best, bestD = c, dd
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		// Majority-bit recompute.
		bitCount := make([][]int, k)
		size := make([]int, k)
		for c := range bitCount {
			bitCount[c] = make([]int, 256)
		}
		for i, d := range descs {
			c := assign[i]
			size[c]++
			for b := 0; b < 256; b++ {
				if d[b>>6]&(1<<(uint(b)&63)) != 0 {
					bitCount[c][b]++
				}
			}
		}
		for c := range cents {
			if size[c] == 0 {
				// Re-seed empty cluster with a random member.
				cents[c] = descs[rng.Intn(len(descs))]
				continue
			}
			var nd feature.Descriptor
			for b := 0; b < 256; b++ {
				if bitCount[c][b]*2 >= size[c] {
					nd[b>>6] |= 1 << (uint(b) & 63)
				}
			}
			cents[c] = nd
		}
		if !changed && iter > 0 {
			break
		}
	}
	groups := make([][]feature.Descriptor, k)
	for i, d := range descs {
		groups[assign[i]] = append(groups[assign[i]], d)
	}
	outC := cents[:0]
	var outG [][]feature.Descriptor
	for c := range groups {
		if len(groups[c]) > 0 {
			outC = append(outC, cents[c])
			outG = append(outG, groups[c])
		}
	}
	return outC, outG
}
