// Package blocking implements the first step of the paper's CCER pipeline
// (Section 2): (meta-)blocking, the indexing that reduces the quadratic
// comparison space to candidate pairs before matching. The paper's own
// experiments skip blocking — the similarity threshold plays its pruning
// role — but a complete pipeline needs it, and the package follows the
// standard learning-free techniques surveyed in Papadakis et al.,
// "Blocking and Filtering Techniques for Entity Resolution" (reference
// [43] of the paper): token blocking, attribute blocking, block purging,
// block filtering and comparison-level meta-blocking with CBS weights.
package blocking

import (
	"sort"

	"github.com/ccer-go/ccer/internal/dataset"
	"github.com/ccer-go/ccer/internal/strsim"
)

// Block is one blocking-key bucket holding candidate entities from both
// collections. Only blocks with entities on both sides generate
// comparisons.
type Block struct {
	Key string
	V1  []int32
	V2  []int32
}

// Comparisons returns the number of cross-pairs the block generates,
// saturating at MaxInt64 for pathological blocks instead of overflowing.
func (b Block) Comparisons() int64 {
	return mulSat64(int64(len(b.V1)), int64(len(b.V2)))
}

// TokenBlocking builds one block per token appearing in any attribute
// value (schema-agnostic). It guarantees that every pair of entities
// sharing at least one token co-occurs in at least one block.
func TokenBlocking(c1, c2 *dataset.Collection) []Block {
	return keyBlocks(c1, c2, func(p dataset.Profile) []string {
		return strsim.Tokenize(p.Text())
	})
}

// keyBlocks indexes both collections by the keys function and keeps the
// blocks with entities on both sides, sorted by key for determinism.
func keyBlocks(c1, c2 *dataset.Collection, keys func(dataset.Profile) []string) []Block {
	type sides struct {
		v1, v2 []int32
	}
	index := map[string]*sides{}
	add := func(c *dataset.Collection, side int) {
		var seen map[string]bool
		for i, p := range c.Profiles {
			ks := keys(p)
			if len(ks) == 0 {
				// Profiles whose attributes are all empty produce no
				// blocking keys at all — in particular no ""-keyed block
				// that would pair every key-less entity with every other.
				continue
			}
			clear(seen)
			if seen == nil {
				seen = make(map[string]bool, len(ks))
			}
			for _, k := range ks {
				if k == "" || seen[k] {
					continue
				}
				seen[k] = true
				s, ok := index[k]
				if !ok {
					s = &sides{}
					index[k] = s
				}
				if side == 1 {
					s.v1 = append(s.v1, int32(i))
				} else {
					s.v2 = append(s.v2, int32(i))
				}
			}
		}
	}
	add(c1, 1)
	add(c2, 2)

	blocks := make([]Block, 0, len(index))
	for k, s := range index {
		if len(s.v1) == 0 || len(s.v2) == 0 {
			continue // no cross-source comparisons
		}
		blocks = append(blocks, Block{Key: k, V1: s.v1, V2: s.v2})
	}
	sort.Slice(blocks, func(i, j int) bool { return blocks[i].Key < blocks[j].Key })
	return blocks
}

// PurgeBlocks removes oversized blocks: any block whose comparison count
// exceeds maxComparisons. Oversized blocks stem from stop-word-like keys
// and contribute mostly noise.
func PurgeBlocks(blocks []Block, maxComparisons int64) []Block {
	kept := blocks[:0:0]
	for _, b := range blocks {
		if b.Comparisons() <= maxComparisons {
			kept = append(kept, b)
		}
	}
	return kept
}

// FilterBlocks applies block filtering: every entity is retained only in
// the ratio portion of its smallest blocks (by comparison count), with
// ratio in (0,1]. This is the standard block-filtering heuristic of [43].
func FilterBlocks(blocks []Block, ratio float64) []Block {
	if ratio >= 1 || len(blocks) == 0 {
		return blocks
	}
	if ratio <= 0 {
		return nil
	}
	// Order blocks by ascending comparison count.
	order := make([]int, len(blocks))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return blocks[order[a]].Comparisons() < blocks[order[b]].Comparisons()
	})

	// Count each entity's block memberships.
	count1 := map[int32]int{}
	count2 := map[int32]int{}
	for _, b := range blocks {
		for _, u := range b.V1 {
			count1[u]++
		}
		for _, v := range b.V2 {
			count2[v]++
		}
	}
	limit1 := map[int32]int{}
	limit2 := map[int32]int{}
	for u, c := range count1 {
		limit1[u] = atLeastOne(int(ratio * float64(c)))
	}
	for v, c := range count2 {
		limit2[v] = atLeastOne(int(ratio * float64(c)))
	}

	// Walk blocks smallest-first, keeping entities under their limits.
	used1 := map[int32]int{}
	used2 := map[int32]int{}
	out := make([]Block, 0, len(blocks))
	filtered := make([]Block, len(blocks))
	for _, bi := range order {
		b := blocks[bi]
		nb := Block{Key: b.Key}
		for _, u := range b.V1 {
			if used1[u] < limit1[u] {
				used1[u]++
				nb.V1 = append(nb.V1, u)
			}
		}
		for _, v := range b.V2 {
			if used2[v] < limit2[v] {
				used2[v]++
				nb.V2 = append(nb.V2, v)
			}
		}
		filtered[bi] = nb
	}
	for _, b := range filtered {
		if len(b.V1) > 0 && len(b.V2) > 0 {
			out = append(out, b)
		}
	}
	return out
}

func atLeastOne(x int) int {
	if x < 1 {
		return 1
	}
	return x
}

// Candidates deduplicates the cross-pairs of all blocks.
func Candidates(blocks []Block) [][2]int32 {
	seen := map[int64]bool{}
	var out [][2]int32
	for _, b := range blocks {
		for _, u := range b.V1 {
			for _, v := range b.V2 {
				k := int64(u)<<32 | int64(uint32(v))
				if !seen[k] {
					seen[k] = true
					out = append(out, [2]int32{u, v})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// Quality measures blocking effectiveness against a ground truth: pair
// completeness (recall of true matches among candidates) and the
// reduction ratio versus the full Cartesian product.
type Quality struct {
	PairCompleteness float64
	ReductionRatio   float64
	Candidates       int
}

// Evaluate computes blocking quality for a candidate set.
func Evaluate(cands [][2]int32, gt *dataset.GroundTruth, n1, n2 int) Quality {
	q := Quality{Candidates: len(cands)}
	if gt.Len() > 0 {
		found := 0
		for _, c := range cands {
			if gt.IsMatch(c[0], c[1]) {
				found++
			}
		}
		q.PairCompleteness = float64(found) / float64(gt.Len())
	}
	if cart := int64(n1) * int64(n2); cart > 0 {
		q.ReductionRatio = 1 - float64(len(cands))/float64(cart)
	}
	return q
}
