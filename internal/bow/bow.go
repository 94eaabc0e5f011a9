// Package bow implements a DBoW2-style hierarchical bag-of-binary-words
// vocabulary over ORB descriptors, the place-recognition machinery
// behind the paper's DetectCommonRegion (Alg. 2): keyframes are encoded
// as sparse word-frequency vectors, an inverted-index database returns
// candidate keyframes observing the same place, and geometric
// verification (in internal/merge) confirms them.
package bow

import (
	"math"
	"math/rand"
	"sort"
	"sync"

	"slamshare/internal/feature"
)

// WordID identifies a vocabulary leaf.
type WordID uint32

// Vec is a sparse, L1-normalized bag-of-words vector.
type Vec map[WordID]float64

// Vocabulary is a k-ary tree of binary centroids of the given depth;
// its leaves are the words.
type Vocabulary struct {
	K     int
	Depth int
	// Tree nodes in breadth-first order. Node i's children occupy
	// centroids[childStart[i] : childStart[i]+childCount[i]]; leaves
	// have childCount[i] == 0 and a word id in leafWord[i].
	centroids  []feature.Descriptor
	childStart []int32
	childCount []int32
	leafWord   []int32
	words      int
}

// Words returns the number of leaf words.
func (v *Vocabulary) Words() int { return v.words }

// Train builds a vocabulary by recursive k-medians clustering (Hamming
// metric, majority-bit centroids) of the training descriptors.
func Train(descs []feature.Descriptor, k, depth int, seed int64) *Vocabulary {
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
		cents, groups := kMedians(j.descs, k, rng)
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

// kMedians clusters descs into at most k groups and returns the
// majority-bit centroids and member groups. Empty clusters are
// dropped.
func kMedians(descs []feature.Descriptor, k int, rng *rand.Rand) ([]feature.Descriptor, [][]feature.Descriptor) {
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

// WordOf quantizes a descriptor down the tree to its leaf word.
func (v *Vocabulary) WordOf(d feature.Descriptor) WordID {
	node := 0
	for {
		n := int(v.childCount[node])
		if n == 0 {
			w := v.leafWord[node]
			if w < 0 {
				return 0
			}
			return WordID(w)
		}
		first := int(v.childStart[node])
		best, bestD := first, feature.Distance(d, v.centroids[first])
		for c := first + 1; c < first+n; c++ {
			if dd := feature.Distance(d, v.centroids[c]); dd < bestD {
				best, bestD = c, dd
			}
		}
		node = best
	}
}

// BowOf encodes a descriptor set as an L1-normalized word-frequency
// vector.
func (v *Vocabulary) BowOf(descs []feature.Descriptor) Vec {
	bv := make(Vec)
	for _, d := range descs {
		bv[v.WordOf(d)]++
	}
	var sum float64
	for _, n := range bv {
		sum += n
	}
	if sum > 0 {
		for w := range bv {
			bv[w] /= sum
		}
	}
	return bv
}

// Score returns the DBoW2 L1 similarity between two normalized
// vectors: 1 - 0.5*|a - b|_1, in [0, 1].
func Score(a, b Vec) float64 {
	var l1 float64
	for w, va := range a {
		if vb, ok := b[w]; ok {
			l1 += math.Abs(va-vb) - va - vb
		}
	}
	// Terms absent from the intersection contribute |va| + |vb| = 2
	// total over both normalized vectors.
	l1 += 2
	s := 1 - 0.5*l1
	if s < 0 {
		return 0
	}
	return s
}

// Result is a database query hit.
type Result struct {
	ID    uint64
	Score float64
}

// Database is an inverted index from words to the keyframes containing
// them, used to shortlist merge/loop candidates.
type Database struct {
	index map[WordID][]uint64
	vecs  map[uint64]Vec
}

// NewDatabase returns an empty database.
func NewDatabase() *Database {
	return &Database{index: make(map[WordID][]uint64), vecs: make(map[uint64]Vec)}
}

// Add indexes a keyframe's bag-of-words vector under its id.
// Re-adding an id replaces its previous vector.
func (db *Database) Add(id uint64, bv Vec) {
	if _, ok := db.vecs[id]; ok {
		db.Remove(id)
	}
	db.vecs[id] = bv
	for w := range bv {
		db.index[w] = append(db.index[w], id)
	}
}

// Remove deletes a keyframe from the index.
func (db *Database) Remove(id uint64) {
	bv, ok := db.vecs[id]
	if !ok {
		return
	}
	delete(db.vecs, id)
	for w := range bv {
		list := db.index[w]
		for i, v := range list {
			if v == id {
				list[i] = list[len(list)-1]
				db.index[w] = list[:len(list)-1]
				break
			}
		}
		if len(db.index[w]) == 0 {
			delete(db.index, w)
		}
	}
}

// Len returns the number of indexed keyframes.
func (db *Database) Len() int { return len(db.vecs) }

// IDs returns the indexed keyframe ids (unspecified order). The
// invariant checker uses it to audit index <-> map agreement.
func (db *Database) IDs() []uint64 {
	out := make([]uint64, 0, len(db.vecs))
	for id := range db.vecs {
		out = append(out, id)
	}
	return out
}

// CheckIndex audits the inverted index against the vector table and
// returns the disagreements: orphans are ids that appear in some
// word's posting list but have no vector (an erase that tore the
// posting-list side), missing are id/word pairs a stored vector says
// should be posted but are not (an add that tore). Both slices are
// empty on a healthy database. The erase-heavy lifecycle paths make
// these leftovers the likeliest corruption, so the map invariant
// checker audits at this level rather than only comparing id sets.
func (db *Database) CheckIndex() (orphans, missing []uint64) {
	orphanSeen := make(map[uint64]bool)
	for _, list := range db.index {
		for _, id := range list {
			if _, ok := db.vecs[id]; !ok && !orphanSeen[id] {
				orphanSeen[id] = true
				orphans = append(orphans, id)
			}
		}
	}
	missingSeen := make(map[uint64]bool)
	for id, bv := range db.vecs {
		for w := range bv {
			posted := false
			for _, v := range db.index[w] {
				if v == id {
					posted = true
					break
				}
			}
			if !posted && !missingSeen[id] {
				missingSeen[id] = true
				missing = append(missing, id)
			}
		}
	}
	return orphans, missing
}

// Query returns the topN keyframes sharing words with bv, scored by
// L1 similarity, excluding ids for which exclude returns true.
func (db *Database) Query(bv Vec, topN int, exclude func(uint64) bool) []Result {
	seen := make(map[uint64]bool)
	var results []Result
	for w := range bv {
		for _, id := range db.index[w] {
			if seen[id] {
				continue
			}
			seen[id] = true
			if exclude != nil && exclude(id) {
				continue
			}
			results = append(results, Result{ID: id, Score: Score(bv, db.vecs[id])})
		}
	}
	// Equal scores go by ascending ID: hits are collected in map order,
	// and the cut below must not depend on it.
	sort.Slice(results, func(i, j int) bool {
		if results[i].Score != results[j].Score {
			return results[i].Score > results[j].Score
		}
		return results[i].ID < results[j].ID
	})
	if len(results) > topN {
		results = results[:topN]
	}
	return results
}

// defaultVoc is the lazily trained shared vocabulary (see Default).
var (
	defaultOnce sync.Once
	defaultVoc  *Vocabulary
)

// Default returns the package's standard vocabulary: k=8, depth=4,
// trained once on a synthetic descriptor corpus drawn from the same
// distribution the renderer produces. Real ORB-SLAM ships a vocabulary
// pretrained offline on natural images; this is its analogue for the
// synthetic worlds (see DESIGN.md).
func Default() *Vocabulary {
	defaultOnce.Do(func() {
		rng := rand.New(rand.NewSource(0xB0CA))
		corpus := make([]feature.Descriptor, 6000)
		for i := range corpus {
			for w := 0; w < 4; w++ {
				corpus[i][w] = rng.Uint64()
			}
		}
		defaultVoc = Train(corpus, 8, 4, 0xB0CA)
	})
	return defaultVoc
}
