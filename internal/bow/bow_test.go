package bow

import (
	"math"
	"math/rand"
	"testing"

	"slamshare/internal/feature"
)

func randDesc(rng *rand.Rand) feature.Descriptor {
	var d feature.Descriptor
	for i := range d {
		d[i] = rng.Uint64()
	}
	return d
}

// perturb flips nBits random bits of d.
func perturb(d feature.Descriptor, nBits int, rng *rand.Rand) feature.Descriptor {
	for i := 0; i < nBits; i++ {
		b := rng.Intn(256)
		d[b>>6] ^= 1 << (uint(b) & 63)
	}
	return d
}

func corpus(n int, seed int64) []feature.Descriptor {
	rng := rand.New(rand.NewSource(seed))
	out := make([]feature.Descriptor, n)
	for i := range out {
		out[i] = randDesc(rng)
	}
	return out
}

func TestTrainProducesWords(t *testing.T) {
	v := Train(corpus(2000, 1), 8, 3, 1)
	if v.Words() < 100 {
		t.Fatalf("vocabulary has only %d words", v.Words())
	}
	if v.Words() > 8*8*8 {
		t.Fatalf("too many words: %d", v.Words())
	}
}

func TestTrainDegenerateInputs(t *testing.T) {
	v := Train(corpus(1, 2), 8, 3, 1)
	if v.Words() != 1 {
		t.Errorf("single-descriptor vocabulary: %d words", v.Words())
	}
	v2 := Train(corpus(100, 3), 1, 0, 1) // k and depth get clamped
	if v2.Words() < 1 {
		t.Error("clamped vocabulary has no words")
	}
}

func TestWordOfDeterministic(t *testing.T) {
	v := Train(corpus(1000, 4), 8, 3, 2)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 100; i++ {
		d := randDesc(rng)
		if v.WordOf(d) != v.WordOf(d) {
			t.Fatal("word assignment not deterministic")
		}
	}
}

func TestSimilarDescriptorsOftenShareWords(t *testing.T) {
	v := Train(corpus(4000, 5), 8, 3, 3)
	rng := rand.New(rand.NewSource(10))
	same, diff := 0, 0
	const trials = 400
	for i := 0; i < trials; i++ {
		d := randDesc(rng)
		if v.WordOf(d) == v.WordOf(perturb(d, 15, rng)) {
			same++
		}
		if v.WordOf(d) == v.WordOf(randDesc(rng)) {
			diff++
		}
	}
	// A 15-bit perturbation keeps the word much more often than chance.
	if same <= diff*2 {
		t.Errorf("word stability too low: same=%d/%d vs random=%d/%d", same, trials, diff, trials)
	}
}

func TestBowOfNormalized(t *testing.T) {
	v := Train(corpus(1000, 6), 8, 3, 4)
	descs := corpus(300, 7)
	bv := v.BowOf(descs)
	var sum float64
	for i, e := range bv {
		sum += e.Weight
		if i > 0 && e.Word <= bv[i-1].Word {
			t.Errorf("words out of order at %d: %d after %d", i, e.Word, bv[i-1].Word)
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("BoW vector sums to %v", sum)
	}
	if e := v.BowOf(nil); e == nil || len(e) != 0 {
		t.Error("empty descriptor set should give an empty, non-nil vector")
	}
}

func TestScoreProperties(t *testing.T) {
	v := Train(corpus(2000, 8), 8, 3, 5)
	a := v.BowOf(corpus(200, 100))
	if s := Score(a, a); math.Abs(s-1) > 1e-9 {
		t.Errorf("self score = %v", s)
	}
	b := v.BowOf(corpus(200, 200))
	sAB := Score(a, b)
	sBA := Score(b, a)
	if math.Abs(sAB-sBA) > 1e-9 {
		t.Errorf("score not symmetric: %v vs %v", sAB, sBA)
	}
	if sAB < 0 || sAB > 1 {
		t.Errorf("score out of range: %v", sAB)
	}
	if s := Score(a, Vec{}); s != 0 {
		t.Errorf("score against empty = %v", s)
	}
}

func TestOverlappingSetsScoreHigher(t *testing.T) {
	v := Train(corpus(4000, 11), 8, 4, 6)
	rng := rand.New(rand.NewSource(42))
	base := corpus(250, 300)
	// View 2 shares 60% of view 1's descriptors (perturbed), the rest
	// are new — like two keyframes seeing the same place.
	view2 := make([]feature.Descriptor, 0, 250)
	for i := 0; i < 150; i++ {
		view2 = append(view2, perturb(base[i], 10, rng))
	}
	view2 = append(view2, corpus(100, 301)...)
	unrelated := corpus(250, 302)

	bvBase := v.BowOf(base)
	sOverlap := Score(bvBase, v.BowOf(view2))
	sRandom := Score(bvBase, v.BowOf(unrelated))
	if sOverlap <= sRandom*1.5 {
		t.Errorf("overlap score %v not well above random %v", sOverlap, sRandom)
	}
}

func TestDatabaseQueryRanksOverlapFirst(t *testing.T) {
	v := Train(corpus(4000, 12), 8, 4, 7)
	rng := rand.New(rand.NewSource(13))
	base := corpus(250, 400)
	overlap := make([]feature.Descriptor, 0, 250)
	for i := 0; i < 150; i++ {
		overlap = append(overlap, perturb(base[i], 10, rng))
	}
	overlap = append(overlap, corpus(100, 401)...)

	db := NewDatabase()
	db.Add(1, v.BowOf(overlap))
	for id := uint64(2); id < 12; id++ {
		db.Add(id, v.BowOf(corpus(250, 500+int64(id))))
	}
	res := db.Query(v.BowOf(base), 3, nil)
	if len(res) == 0 {
		t.Fatal("no results")
	}
	if res[0].ID != 1 {
		t.Errorf("best hit = %d (score %v), want 1", res[0].ID, res[0].Score)
	}
}

func TestDatabaseExcludeAndRemove(t *testing.T) {
	v := Train(corpus(1000, 14), 8, 3, 8)
	db := NewDatabase()
	bv := v.BowOf(corpus(100, 600))
	db.Add(1, bv)
	db.Add(2, bv)
	if db.Len() != 2 {
		t.Fatalf("Len = %d", db.Len())
	}
	res := db.Query(bv, 10, func(id uint64) bool { return id == 1 })
	for _, r := range res {
		if r.ID == 1 {
			t.Error("excluded id returned")
		}
	}
	db.Remove(1)
	if db.Len() != 1 {
		t.Errorf("Len after remove = %d", db.Len())
	}
	db.Remove(99) // unknown id must be a no-op
	res = db.Query(bv, 10, nil)
	if len(res) != 1 || res[0].ID != 2 {
		t.Errorf("post-remove query = %+v", res)
	}
}

func TestDatabaseReAddReplaces(t *testing.T) {
	v := Train(corpus(1000, 15), 8, 3, 9)
	db := NewDatabase()
	db.Add(1, v.BowOf(corpus(100, 700)))
	db.Add(1, v.BowOf(corpus(100, 701)))
	if db.Len() != 1 {
		t.Errorf("re-add duplicated entry: Len = %d", db.Len())
	}
}

// TestDatabaseQueryBreaksTiesByID: two keyframes with the same score
// reach the sort in posting-list order; which one survives the topN
// cut — a relocalization or merge candidate — must not depend on that.
// The weights are powers of two so the scores are equal to the bit.
func TestDatabaseQueryBreaksTiesByID(t *testing.T) {
	db := NewDatabase()
	quarters := Vec{{1, 0.25}, {2, 0.25}, {3, 0.25}, {4, 0.25}}
	db.Add(7, quarters)
	db.Add(3, quarters)
	db.Add(5, Vec{{1, 0.5}, {9, 0.5}})
	query := Vec{{1, 0.25}, {2, 0.25}, {3, 0.5}}
	for i := 0; i < 50; i++ {
		if res := db.Query(query, 1, nil); len(res) != 1 || res[0].ID != 3 {
			t.Fatalf("query %d = %+v, want the lower of the two equal-score ids", i, res)
		}
	}
}
