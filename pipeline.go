package ccer

// Extended pipeline API: blocking (step (i) of the CCER pipeline),
// unsupervised threshold estimation, and the paper's future-work
// Q-learning matcher.

import (
	"fmt"

	"github.com/ccer-go/ccer/internal/blocking"
	"github.com/ccer-go/ccer/internal/eval"
	"github.com/ccer-go/ccer/internal/rl"
)

// Block is one blocking bucket of candidate entities from both
// collections.
type Block = blocking.Block

// BlockingQuality reports pair completeness and reduction ratio of a
// candidate set.
type BlockingQuality = blocking.Quality

// TokenBlocking indexes both collections by the tokens of all their
// attribute values and returns the blocks with entities on both sides.
// Every pair sharing at least one token co-occurs in at least one block.
func TokenBlocking(c1, c2 *Collection) []Block {
	return blocking.TokenBlocking(c1, c2)
}

// AttributeBlocking indexes both collections by the tokens of one
// attribute (standard blocking).
func AttributeBlocking(c1, c2 *Collection, attr string) []Block {
	return blocking.AttributeBlocking(c1, c2, attr)
}

// PurgeBlocks drops blocks generating more than maxComparisons
// cross-pairs.
func PurgeBlocks(blocks []Block, maxComparisons int64) []Block {
	return blocking.PurgeBlocks(blocks, maxComparisons)
}

// FilterBlocks retains every entity only in the given ratio of its
// smallest blocks.
func FilterBlocks(blocks []Block, ratio float64) []Block {
	return blocking.FilterBlocks(blocks, ratio)
}

// BlockCandidates deduplicates the cross-pairs of the blocks.
func BlockCandidates(blocks []Block) [][2]int32 { return blocking.Candidates(blocks) }

// MetaBlocking prunes candidate pairs below the average
// common-block-count weight (the WEP scheme).
func MetaBlocking(blocks []Block) [][2]int32 { return blocking.MetaBlocking(blocks) }

// EvaluateBlocking scores a candidate set against the ground truth.
func EvaluateBlocking(cands [][2]int32, gt *GroundTruth, n1, n2 int) BlockingQuality {
	return blocking.Evaluate(cands, gt, n1, n2)
}

// BuildGraphFromCandidates scores only the candidate pairs (from
// blocking) instead of the full Cartesian product. A candidate indexing
// outside either collection (possible when the candidate set was built
// against different collections) is reported as an error.
func BuildGraphFromCandidates(texts1, texts2 []string, cands [][2]int32, sim SimilarityFunc, minSim float64) (*Graph, error) {
	for i, c := range cands {
		if c[0] < 0 || int(c[0]) >= len(texts1) || c[1] < 0 || int(c[1]) >= len(texts2) {
			return nil, fmt.Errorf("ccer: candidate %d: pair (%d,%d) out of range for collections of %d and %d texts",
				i, c[0], c[1], len(texts1), len(texts2))
		}
	}
	return scorePairs(texts1, texts2, sim, minSim, func(yield func(i, j int32) bool) {
		for _, c := range cands {
			if !yield(c[0], c[1]) {
				return
			}
		}
	})
}

// EstimateThreshold suggests a similarity threshold for a normalized
// graph without ground truth, exploiting the Clean-Clean structure (at
// most min(|V1|,|V2|) edges can be matched). See the paper's Table 8
// analysis for why threshold choice dominates both effectiveness and
// run-time.
func EstimateThreshold(g *Graph) float64 { return eval.EstimateThreshold(g) }

// NewQLearningMatcher returns the Q-learning bipartite matcher that the
// paper cites as future work (Wang et al., ICDE 2019), adapted to static
// CCER: state (|L|,|R|), reward = matched weight, trained on the graph's
// own edge stream without labels.
func NewQLearningMatcher(seed int64) Matcher { return rl.NewQMatcher(seed) }
