// Package rl implements the reinforcement-learning approach to bipartite
// graph matching that the paper's related work describes (Wang et al.,
// "Adaptive Dynamic Bipartite Graph Matching: A Reinforcement Learning
// Approach", ICDE 2019) and explicitly defers to future work: a
// Q-learning agent whose state is the pair (|L|, |R|) of already-matched
// node counts and whose reward is the weight of the matches it selects.
//
// The adaptation to the static CCER setting processes the above-threshold
// edges in descending weight, like UMC, but lets a learned policy decide
// per edge whether to accept it or skip it in the hope of a better
// configuration later. Training needs no labels — the reward is the
// matched weight, exactly as in Wang et al. — so the matcher stays
// learning-free in the paper's sense (no ground-truth pruning model).
//
// This package is an extension beyond the paper's evaluated algorithms;
// it exists so the future-work experiment can be run, and its tests
// compare the learned policy against UMC (its greedy special case) and
// the exact optimum.
package rl

import (
	"math/rand"

	"github.com/ccer-go/ccer/internal/core"
	"github.com/ccer-go/ccer/internal/graph"
)

// QMatcher is a tabular Q-learning bipartite matcher. The zero value is
// not useful; use NewQMatcher for sensible defaults.
type QMatcher struct {
	// Episodes is the number of training episodes over the edge stream.
	Episodes int
	// Alpha is the learning rate in (0,1].
	Alpha float64
	// Gamma is the discount factor in [0,1].
	Gamma float64
	// Epsilon is the exploration rate of the ε-greedy behavior policy.
	Epsilon float64
	// Buckets discretizes the matched-fraction state dimensions.
	Buckets int
	// Seed makes training reproducible.
	Seed int64
}

// NewQMatcher returns a QMatcher with defaults that converge quickly on
// the corpus graph sizes used in this repository.
func NewQMatcher(seed int64) QMatcher {
	return QMatcher{
		Episodes: 30,
		Alpha:    0.2,
		Gamma:    0.95,
		Epsilon:  0.15,
		Buckets:  8,
		Seed:     seed,
	}
}

// Name implements core.Matcher.
func (QMatcher) Name() string { return "QLM" }

// CloneMatcher implements core.Cloner. The Q-table and the rand.Rand are
// created inside Match, so the value copy is an independent matcher with
// identical behavior at the same seed.
func (q QMatcher) CloneMatcher() core.Matcher { return q }

const numActions = 2 // 0 = skip, 1 = accept

// Match implements core.Matcher: it trains the Q-table on the graph's
// own edge stream and then runs the greedy learned policy.
func (q QMatcher) Match(g *graph.Bipartite, t float64) []core.Pair {
	episodes := q.Episodes
	if episodes <= 0 {
		episodes = 30
	}
	buckets := q.Buckets
	if buckets <= 0 {
		buckets = 8
	}
	alpha, gamma, eps := q.Alpha, q.Gamma, q.Epsilon
	if alpha <= 0 {
		alpha = 0.2
	}
	if gamma <= 0 {
		gamma = 0.95
	}

	// The edge stream: above-threshold edges in descending weight.
	stream := g.EdgesByWeight()
	for i, e := range stream {
		if !(e.W > t) {
			stream = stream[:i]
			break
		}
	}
	if len(stream) == 0 {
		return nil
	}

	// State: (bucketized |L|/|V1|, bucketized |R|/|V2|, weight bucket).
	stateOf := func(matched1, matched2 int, w float64) int {
		b1 := matched1 * buckets / (g.N1() + 1)
		b2 := matched2 * buckets / (g.N2() + 1)
		bw := int(w * float64(buckets-1))
		return (b1*buckets+b2)*buckets + bw
	}
	qtab := make([]float64, buckets*buckets*buckets*numActions)

	rng := rand.New(rand.NewSource(q.Seed))
	run := func(train bool) []core.Pair {
		matched1 := make([]bool, g.N1())
		matched2 := make([]bool, g.N2())
		n1, n2 := 0, 0
		var pairs []core.Pair
		prevState, prevAction := -1, 0
		prevReward := 0.0
		for _, e := range stream {
			if matched1[e.U] || matched2[e.V] {
				continue // not a decision point
			}
			s := stateOf(n1, n2, e.W)
			var a int
			if train && rng.Float64() < eps {
				a = rng.Intn(numActions)
			} else if qtab[s*numActions+1] >= qtab[s*numActions] {
				a = 1 // accept on ties: the optimistic default
			}
			if train && prevState >= 0 {
				// One-step Q-learning update for the previous decision.
				best := qtab[s*numActions]
				if qtab[s*numActions+1] > best {
					best = qtab[s*numActions+1]
				}
				idx := prevState*numActions + prevAction
				qtab[idx] += alpha * (prevReward + gamma*best - qtab[idx])
			}
			reward := 0.0
			if a == 1 {
				matched1[e.U], matched2[e.V] = true, true
				n1++
				n2++
				reward = e.W
				pairs = append(pairs, core.Pair{U: e.U, V: e.V, W: e.W})
			}
			prevState, prevAction, prevReward = s, a, reward
		}
		if train && prevState >= 0 {
			idx := prevState*numActions + prevAction
			qtab[idx] += alpha * (prevReward - qtab[idx]) // terminal update
		}
		return pairs
	}

	for ep := 0; ep < episodes; ep++ {
		run(true)
	}
	pairs := run(false)
	core.SortPairs(pairs)
	return pairs
}
