package blocking

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/ccer-go/ccer/internal/datagen"
	"github.com/ccer-go/ccer/internal/dataset"
	"github.com/ccer-go/ccer/internal/strsim"
)

func testCollections() (*dataset.Collection, *dataset.Collection) {
	c1 := &dataset.Collection{Name: "a", Profiles: []dataset.Profile{
		{ID: "a0", Attrs: map[string]string{"name": "golden dragon bistro", "city": "boston"}},
		{ID: "a1", Attrs: map[string]string{"name": "blue harbor grill", "city": "chicago"}},
		{ID: "a2", Attrs: map[string]string{"name": "old oak tavern", "city": "denver"}},
	}}
	c2 := &dataset.Collection{Name: "b", Profiles: []dataset.Profile{
		{ID: "b0", Attrs: map[string]string{"name": "golden dragon bistro", "city": "boston"}},
		{ID: "b1", Attrs: map[string]string{"name": "harbor grill house", "city": "chicago"}},
		{ID: "b2", Attrs: map[string]string{"name": "midnight garden", "city": "austin"}},
	}}
	return c1, c2
}

func TestTokenBlocking(t *testing.T) {
	c1, c2 := testCollections()
	blocks := TokenBlocking(c1, c2)
	if len(blocks) == 0 {
		t.Fatal("no blocks")
	}
	keys := map[string]Block{}
	for _, b := range blocks {
		keys[b.Key] = b
		if len(b.V1) == 0 || len(b.V2) == 0 {
			t.Fatalf("one-sided block %q survived", b.Key)
		}
	}
	// "golden" appears on both sides; "midnight" only on one.
	if _, ok := keys["golden"]; !ok {
		t.Fatal("missing block for shared token")
	}
	if _, ok := keys["midnight"]; ok {
		t.Fatal("one-sided token produced a block")
	}
	// Coverage guarantee: the true match (0,0) shares tokens, so it must
	// be a candidate.
	cands := Candidates(blocks)
	if !hasPair(cands, 0, 0) {
		t.Fatal("token blocking missed the identical pair")
	}
}

// attributeBlocks is standard blocking on one attribute's tokens,
// through the keyBlocks engine that TokenBlocking runs on all of them.
func attributeBlocks(c1, c2 *dataset.Collection, attr string) []Block {
	return keyBlocks(c1, c2, func(p dataset.Profile) []string {
		return strsim.Tokenize(p.Get(attr))
	})
}

func TestAttributeBlocking(t *testing.T) {
	c1, c2 := testCollections()
	blocks := attributeBlocks(c1, c2, "city")
	keys := map[string]bool{}
	for _, b := range blocks {
		keys[b.Key] = true
	}
	if !keys["boston"] || !keys["chicago"] {
		t.Fatalf("city blocks missing: %v", keys)
	}
	if keys["golden"] {
		t.Fatal("attribute blocking leaked other attributes")
	}
}

func hasPair(cands [][2]int32, u, v int32) bool {
	for _, c := range cands {
		if c[0] == u && c[1] == v {
			return true
		}
	}
	return false
}

func TestPurgeBlocks(t *testing.T) {
	blocks := []Block{
		{Key: "small", V1: []int32{0}, V2: []int32{0}},
		{Key: "huge", V1: []int32{0, 1, 2, 3}, V2: []int32{0, 1, 2, 3}},
	}
	purged := PurgeBlocks(blocks, 4)
	if len(purged) != 1 || purged[0].Key != "small" {
		t.Fatalf("purge kept %v", purged)
	}
}

func TestFilterBlocks(t *testing.T) {
	// Entity 0 of V1 is in three blocks of growing size; with ratio 0.34
	// it keeps only its smallest block.
	blocks := []Block{
		{Key: "a", V1: []int32{0}, V2: []int32{0}},
		{Key: "b", V1: []int32{0, 1}, V2: []int32{0, 1}},
		{Key: "c", V1: []int32{0, 1, 2}, V2: []int32{0, 1, 2}},
	}
	filtered := FilterBlocks(blocks, 0.34)
	in := 0
	for _, b := range filtered {
		for _, u := range b.V1 {
			if u == 0 {
				in++
			}
		}
	}
	if in != 1 {
		t.Fatalf("entity 0 kept in %d blocks, want 1", in)
	}
	// ratio 1 is the identity; ratio 0 drops everything.
	if got := FilterBlocks(blocks, 1); len(got) != len(blocks) {
		t.Fatal("ratio 1 changed the blocks")
	}
	if got := FilterBlocks(blocks, 0); got != nil {
		t.Fatal("ratio 0 kept blocks")
	}
}

func TestCandidatesDedup(t *testing.T) {
	blocks := []Block{
		{Key: "x", V1: []int32{0, 1}, V2: []int32{0}},
		{Key: "y", V1: []int32{0}, V2: []int32{0}}, // duplicates (0,0)
	}
	cands := Candidates(blocks)
	if len(cands) != 2 {
		t.Fatalf("candidates = %v, want 2 deduped pairs", cands)
	}
}

func TestEvaluate(t *testing.T) {
	gt := dataset.NewGroundTruth([][2]int32{{0, 0}, {1, 1}})
	cands := [][2]int32{{0, 0}, {0, 1}, {2, 2}}
	q := Evaluate(cands, gt, 10, 10)
	if q.PairCompleteness != 0.5 {
		t.Fatalf("PC = %v", q.PairCompleteness)
	}
	if q.ReductionRatio != 1-3.0/100.0 {
		t.Fatalf("RR = %v", q.ReductionRatio)
	}
	if q.Candidates != 3 {
		t.Fatalf("Candidates = %d", q.Candidates)
	}
}

// On generated datasets, token blocking must achieve high pair
// completeness with a real reduction — the standard result the blocking
// literature reports.
func TestTokenBlockingOnGeneratedData(t *testing.T) {
	for _, id := range []string{"D1", "D2", "D4"} {
		spec, err := datagen.SpecByID(id)
		if err != nil {
			t.Fatal(err)
		}
		task := spec.Generate(3, 0.03)
		blocks := TokenBlocking(task.V1, task.V2)
		cands := Candidates(blocks)
		q := Evaluate(cands, task.GT, task.V1.Len(), task.V2.Len())
		if q.PairCompleteness < 0.95 {
			t.Errorf("%s: pair completeness %.2f, want >= 0.95", id, q.PairCompleteness)
		}
		// Purging + filtering keep completeness high while cutting
		// comparisons further.
		cleaned := FilterBlocks(PurgeBlocks(blocks, int64(task.V1.Len()*task.V2.Len()/4)), 0.5)
		q2 := Evaluate(Candidates(cleaned), task.GT, task.V1.Len(), task.V2.Len())
		if q2.Candidates > q.Candidates {
			t.Errorf("%s: purge+filter increased candidates", id)
		}
		if q2.PairCompleteness < 0.8 {
			t.Errorf("%s: cleaned pair completeness %.2f too low", id, q2.PairCompleteness)
		}
	}
}

// Property: FilterBlocks never invents entities or pairs, and every
// block it returns is two-sided.
func TestPropertyFilterBlocksSubset(t *testing.T) {
	f := func(seed int64, ratioRaw float64) bool {
		rng := rand.New(rand.NewSource(seed))
		ratio := 0.1 + 0.9*abs1(ratioRaw)
		var blocks []Block
		nb := rng.Intn(10) + 1
		for i := 0; i < nb; i++ {
			b := Block{Key: string(rune('a' + i))}
			for k := 0; k < rng.Intn(5)+1; k++ {
				b.V1 = append(b.V1, int32(rng.Intn(8)))
				b.V2 = append(b.V2, int32(rng.Intn(8)))
			}
			blocks = append(blocks, b)
		}
		before := map[int64]bool{}
		for _, c := range Candidates(blocks) {
			before[int64(c[0])<<32|int64(c[1])] = true
		}
		filtered := FilterBlocks(blocks, ratio)
		for _, b := range filtered {
			if len(b.V1) == 0 || len(b.V2) == 0 {
				return false
			}
		}
		for _, c := range Candidates(filtered) {
			if !before[int64(c[0])<<32|int64(c[1])] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func abs1(x float64) float64 {
	if x < 0 {
		x = -x
	}
	for x > 1 {
		x /= 2
	}
	return x
}
