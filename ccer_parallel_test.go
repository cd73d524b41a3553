package ccer

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// apiTestInput builds a reproducible random graph and diagonal ground
// truth for the public concurrent API tests.
func apiTestInput(t testing.TB) (*Graph, *GroundTruth) {
	t.Helper()
	rng := rand.New(rand.NewSource(31))
	n := 50
	b := NewGraphBuilder(n, n)
	for i := 0; i < 700; i++ {
		b.Add(int32(rng.Intn(n)), int32(rng.Intn(n)), rng.Float64())
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	pairs := make([][2]int32, n)
	for i := range pairs {
		pairs[i] = [2]int32{int32(i), int32(i)}
	}
	return g, NewGroundTruth(pairs)
}

// allAlgorithmNames is the full matcher surface of the module: the
// paper's eight, the two exact baselines, and the Q-learning extension.
func allAlgorithmNames() []string {
	return append(Algorithms(), "HUN", "AUC", "QLM")
}

// TestSweepAllParallelMatchesSerial asserts the public SweepAll returns
// the same tuning (modulo wall-clock) at any parallelism, fixed seed.
func TestSweepAllParallelMatchesSerial(t *testing.T) {
	g, gt := apiTestInput(t)
	algorithms := allAlgorithmNames()
	serial, err := SweepAll(g, gt, algorithms, Options{Parallelism: 1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(algorithms) {
		t.Fatalf("results: %d, want %d", len(serial), len(algorithms))
	}
	for _, workers := range []int{2, 8, 0} {
		parallel, err := SweepAll(g, gt, algorithms, Options{Parallelism: workers, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		for i := range serial {
			a, b := serial[i], parallel[i]
			if a.Algorithm != b.Algorithm || a.BestT != b.BestT || a.Best != b.Best {
				t.Fatalf("workers=%d %s: serial (t=%v %+v), parallel (t=%v %+v)",
					workers, a.Algorithm, a.BestT, a.Best, b.BestT, b.Best)
			}
			for j := range a.Points {
				if a.Points[j].T != b.Points[j].T || a.Points[j].Metrics != b.Points[j].Metrics {
					t.Fatalf("workers=%d %s point %d diverged", workers, a.Algorithm, j)
				}
			}
		}
	}
}

// TestMatchConcurrentMatchesMatch asserts MatchConcurrent equals a
// sequence of Match calls, in input order, for every algorithm.
func TestMatchConcurrentMatchesMatch(t *testing.T) {
	g, _ := apiTestInput(t)
	algorithms := allAlgorithmNames()
	for _, workers := range []int{1, 3, 0} {
		results, err := MatchConcurrent(g, algorithms, 0.3, Options{Parallelism: workers})
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != len(algorithms) {
			t.Fatalf("results: %d, want %d", len(results), len(algorithms))
		}
		for i, name := range algorithms {
			if results[i].Algorithm != name {
				t.Fatalf("result %d algorithm %q, want %q", i, results[i].Algorithm, name)
			}
			want, err := Match(g, name, 0.3)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(results[i].Pairs, want) {
				t.Fatalf("workers=%d %s: concurrent %d pairs != serial %d pairs",
					workers, name, len(results[i].Pairs), len(want))
			}
		}
	}
}

// TestConcurrentAPIUnknownAlgorithm pins the error path.
func TestConcurrentAPIUnknownAlgorithm(t *testing.T) {
	g, gt := apiTestInput(t)
	if _, err := SweepAll(g, gt, []string{"UMC", "NOPE"}, Options{}); err == nil || !strings.HasPrefix(err.Error(), "ccer: ") {
		t.Fatalf("SweepAll with an unknown algorithm: err %v, want a ccer: error", err)
	}
	if _, err := MatchConcurrent(g, []string{"NOPE"}, 0.3, Options{}); err == nil || !strings.HasPrefix(err.Error(), "ccer: ") {
		t.Fatalf("MatchConcurrent with an unknown algorithm: err %v, want a ccer: error", err)
	}
}

// TestNewMatcherQLM pins that the Q-learning matcher is reachable by
// name.
func TestNewMatcherQLM(t *testing.T) {
	m, err := NewMatcher("QLM", 4)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "QLM" {
		t.Fatalf("Name = %q", m.Name())
	}
}
