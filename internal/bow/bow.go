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
	"slices"
	"sort"
	"sync"

	"slamshare/internal/feature"
)

// WordID identifies a vocabulary leaf.
type WordID uint32

// Entry is one word of a bag-of-words vector and its weight.
type Entry struct {
	Word   WordID
	Weight float64
}

// Vec is a sparse, L1-normalized bag-of-words vector: its entries by
// strictly ascending word.
type Vec []Entry

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
// metric, majority-bit centroids) of the training descriptors; descs is
// left as it was. The result is a pure function of its arguments, down
// to the bit: TestTrainMatchesRef holds it to the reference loop that
// tests each bit alone. On the Default corpus (6 000 descriptors, k=8,
// depth 4) it takes about 15 ms of one core of a 2-vCPU Xeon host,
// against about 300 ms for the reference; the Hamming assignment and the
// byte-lane counting take about a third each.
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
	// Every node's members are a run of one copy of the corpus, which
	// kMedians reorders in place into its children's runs.
	s := newTrainScratch(len(descs), k)
	queue := []job{{node: 0, descs: slices.Clone(descs), level: 0}}
	for len(queue) > 0 {
		j := queue[0]
		queue = queue[1:]
		if j.level >= depth || len(j.descs) <= 1 {
			// Leaf: assign a word id.
			v.leafWord[j.node] = int32(v.words)
			v.words++
			continue
		}
		cents, groups := s.kMedians(j.descs, k, rng)
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

// byteLanes[x] holds bit j of the byte value x in byte lane j of a
// word: adding it to an accumulator counts x's eight bits at once.
var byteLanes = func() (t [256]uint64) {
	for x := range t {
		for j := 0; j < 8; j++ {
			t[x] |= uint64(x>>j&1) << (8 * j)
		}
	}
	return t
}()

// trainScratch is one Train call's k-medians working memory, sized for
// the root (every node has at most as many members).
type trainScratch struct {
	assign []int // cluster of each member
	size   []int // members per cluster
	// counts[c][b] counts cluster c's members with bit b set. lanes[c][p]
	// accumulates the bits of descriptor byte p (bits 8p..8p+7) in eight
	// byte lanes, flushed into counts before a lane can pass 255. Both
	// are zero between recomputes.
	counts [][256]int
	lanes  [][32]uint64
	part   []feature.Descriptor // members regrouped by cluster
	cents  []feature.Descriptor
	groups [][]feature.Descriptor
}

func newTrainScratch(n, k int) *trainScratch {
	return &trainScratch{
		assign: make([]int, n),
		size:   make([]int, k),
		counts: make([][256]int, k),
		lanes:  make([][32]uint64, k),
		part:   make([]feature.Descriptor, n),
		cents:  make([]feature.Descriptor, k),
		groups: make([][]feature.Descriptor, k),
	}
}

// flush adds cluster c's byte-lane accumulators into its bit counts
// and clears them.
func (s *trainScratch) flush(c int) {
	cnt := &s.counts[c]
	for p, acc := range s.lanes[c] {
		for j := 0; j < 8; j++ {
			cnt[8*p+j] += int(acc >> (8 * j) & 0xff)
		}
	}
	s.lanes[c] = [32]uint64{}
}

// majority returns cluster c's majority-bit centroid, bit b set where
// 2·counts ≥ size, and zeroes its counts and lanes. Bit 8p+j is lane j
// of byte p's accumulator plus what earlier flushes counted. Below 255
// members nothing was flushed and every lane holds its whole count, so
// the test runs on eight lanes at once: with h = ⌈size/2⌉ ≤ 127, lane
// x ≥ h exactly when bit 7 of x|0x80 − h or of x is set (no lane
// borrows), and one multiply gathers the eight bit-7s into a byte.
func (s *trainScratch) majority(c, size int) feature.Descriptor {
	var nd feature.Descriptor
	lanes := &s.lanes[c]
	if size < 255 {
		h := uint64((size+1)/2) * lsb8
		for p, x := range lanes {
			m := ((x | msb8) - h | x) & msb8
			nd[p>>3] |= ((m >> 7) * gather8 >> 56) << (8 * (p & 7))
		}
		*lanes = [32]uint64{}
		return nd
	}
	cnt := &s.counts[c]
	for p, x := range lanes {
		for j := 0; j < 8; j++ {
			if n := cnt[8*p+j] + int(x>>(8*j)&0xff); n*2 >= size {
				nd[p>>3] |= 1 << (8*(p&7) + j)
			}
		}
	}
	*cnt, *lanes = [256]int{}, [32]uint64{}
	return nd
}

// Byte-lane constants: 0x01 and 0x80 in every lane, and the multiplier
// that moves bit 8i of a word to bit 56+i.
const (
	lsb8    = 0x0101010101010101
	msb8    = 0x8080808080808080
	gather8 = 0x0102040810204080
)

// kMedians clusters descs into at most k groups and returns the
// majority-bit centroids and member groups; empty clusters are
// dropped. It reorders descs so that each group is a run of it, members
// in their former order. Both results live in s until the next call.
func (s *trainScratch) kMedians(descs []feature.Descriptor, k int, rng *rand.Rand) ([]feature.Descriptor, [][]feature.Descriptor) {
	cents, groups := s.cents[:0], s.groups[:0]
	if len(descs) <= k {
		for i, d := range descs {
			cents = append(cents, d)
			groups = append(groups, descs[i:i+1:i+1])
		}
		return cents, groups
	}
	// Init: k distinct random members.
	cents = cents[:k]
	perm := rng.Perm(len(descs))
	for i := 0; i < k; i++ {
		cents[i] = descs[perm[i]]
	}
	assign, size := s.assign[:len(descs)], s.size[:k]
	clear(assign)
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
		// Majority-bit recompute, a descriptor byte at a time.
		clear(size)
		for i, d := range descs {
			c := assign[i]
			l := &s.lanes[c]
			for w, x := range d {
				p := l[8*w : 8*w+8 : 8*w+8]
				p[0] += byteLanes[byte(x)]
				p[1] += byteLanes[byte(x>>8)]
				p[2] += byteLanes[byte(x>>16)]
				p[3] += byteLanes[byte(x>>24)]
				p[4] += byteLanes[byte(x>>32)]
				p[5] += byteLanes[byte(x>>40)]
				p[6] += byteLanes[byte(x>>48)]
				p[7] += byteLanes[byte(x>>56)]
			}
			if size[c]++; size[c]%255 == 0 {
				s.flush(c)
			}
		}
		for c := range cents {
			if size[c] == 0 {
				// Re-seed empty cluster with a random member.
				cents[c] = descs[rng.Intn(len(descs))]
				continue
			}
			cents[c] = s.majority(c, size[c])
		}
		if !changed && iter > 0 {
			break
		}
	}
	// Regroup the members by cluster, in their order within each: size
	// holds the last assignment's cluster sizes, then each cluster's
	// next slot in part.
	part := s.part[:len(descs)]
	next := 0
	for c := range cents {
		if size[c] > 0 {
			cents[len(groups)] = cents[c]
			groups = append(groups, descs[next:next+size[c]:next+size[c]])
		}
		size[c], next = next, next+size[c]
	}
	for i, d := range descs {
		c := assign[i]
		part[size[c]] = d
		size[c]++
	}
	copy(descs, part)
	return cents[:len(groups)], groups
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
// vector: each word's count over the descriptor count, non-nil even
// when empty.
func (v *Vocabulary) BowOf(descs []feature.Descriptor) Vec {
	words := make([]WordID, len(descs))
	for i, d := range descs {
		words[i] = v.WordOf(d)
	}
	slices.Sort(words)
	bv := Vec{}
	for i := 0; i < len(words); {
		j := i + 1
		for j < len(words) && words[j] == words[i] {
			j++
		}
		bv = append(bv, Entry{Word: words[i], Weight: float64(j-i) / float64(len(words))})
		i = j
	}
	return bv
}

// Score returns the DBoW2 L1 similarity between two normalized
// vectors: 1 - 0.5*|a - b|_1, in [0, 1]. It walks the shared words of
// both vectors in ascending order.
func Score(a, b Vec) float64 {
	var l1 float64
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch wa, wb := a[i].Word, b[j].Word; {
		case wa < wb:
			i++
		case wa > wb:
			j++
		default:
			va, vb := a[i].Weight, b[j].Weight
			l1 += math.Abs(va-vb) - va - vb
			i++
			j++
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
	for _, e := range bv {
		db.index[e.Word] = append(db.index[e.Word], id)
	}
}

// Remove deletes a keyframe from the index.
func (db *Database) Remove(id uint64) {
	bv, ok := db.vecs[id]
	if !ok {
		return
	}
	delete(db.vecs, id)
	for _, e := range bv {
		w := e.Word
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
		for _, e := range bv {
			posted := false
			for _, v := range db.index[e.Word] {
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
	for _, e := range bv {
		for _, id := range db.index[e.Word] {
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
	// Equal scores go by ascending ID, so the cut below does not depend
	// on the order hits were collected in.
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
// trained on first use from a synthetic descriptor corpus drawn from
// the same distribution the renderer produces. Real ORB-SLAM ships a
// vocabulary pretrained offline on natural images; this is its
// analogue for the synthetic worlds (see DESIGN.md). Every server and
// shard process trains it before it listens (see Train for the cost);
// TestDefaultVocabularyGolden pins the result to the bit, since word
// IDs reach BoW vectors, journals and goldens.
func Default() *Vocabulary {
	defaultOnce.Do(func() {
		defaultVoc = Train(defaultCorpus(), 8, 4, 0xB0CA)
	})
	return defaultVoc
}

// defaultCorpus is Default's training corpus: 6 000 uniformly random
// descriptors.
func defaultCorpus() []feature.Descriptor {
	rng := rand.New(rand.NewSource(0xB0CA))
	corpus := make([]feature.Descriptor, 6000)
	for i := range corpus {
		for w := 0; w < 4; w++ {
			corpus[i][w] = rng.Uint64()
		}
	}
	return corpus
}
