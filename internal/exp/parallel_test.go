package exp

import (
	"context"
	"testing"
	"time"

	"github.com/ccer-go/ccer/internal/simgraph"
)

// parallelTestConfig keeps the determinism corpus small: one dataset, one
// weight family, capped BAH.
func parallelTestConfig(parallelism int) Config {
	return Config{
		Seed:        42,
		Scale:       0.02,
		Datasets:    []string{"D1"},
		Families:    []simgraph.Family{simgraph.SBSyn},
		BAHSteps:    500,
		BAHTime:     time.Second,
		Parallelism: parallelism,
	}
}

// zeroRuntimes removes the only legitimately nondeterministic fields.
func zeroRuntimes(c *Corpus) {
	for gi := range c.Graphs {
		for ri := range c.Graphs[gi].Results {
			r := &c.Graphs[gi].Results[ri]
			r.Runtime = 0
			for pi := range r.Points {
				r.Points[pi].Runtime = 0
			}
		}
	}
}

// TestBuildCorpusParallelMatchesSerial asserts the parallel grid produces
// the same corpus as the serial one at a fixed seed: same graphs in the
// same order, same sweep results per algorithm.
func TestBuildCorpusParallelMatchesSerial(t *testing.T) {
	serial, err := BuildCorpusCtx(context.Background(), parallelTestConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := BuildCorpusCtx(context.Background(), parallelTestConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	zeroRuntimes(serial)
	zeroRuntimes(parallel)

	if len(serial.Graphs) != len(parallel.Graphs) {
		t.Fatalf("graphs: serial %d, parallel %d", len(serial.Graphs), len(parallel.Graphs))
	}
	if serial.DroppedNoisy != parallel.DroppedNoisy || serial.DroppedDupes != parallel.DroppedDupes {
		t.Fatalf("cleaning diverged: serial (%d,%d), parallel (%d,%d)",
			serial.DroppedNoisy, serial.DroppedDupes,
			parallel.DroppedNoisy, parallel.DroppedDupes)
	}
	for gi := range serial.Graphs {
		sg, pg := serial.Graphs[gi], parallel.Graphs[gi]
		if sg.Graph.Name != pg.Graph.Name || sg.Graph.Family != pg.Graph.Family {
			t.Fatalf("graph %d: serial %s/%s, parallel %s/%s",
				gi, sg.Graph.Family, sg.Graph.Name, pg.Graph.Family, pg.Graph.Name)
		}
		for ri := range sg.Results {
			a, b := sg.Results[ri], pg.Results[ri]
			if a.Algorithm != b.Algorithm || a.BestT != b.BestT || a.Best != b.Best {
				t.Fatalf("graph %s alg %s: serial (t=%v %+v), parallel (t=%v %+v)",
					sg.Graph.Name, a.Algorithm, a.BestT, a.Best, b.BestT, b.Best)
			}
			for pi := range a.Points {
				if a.Points[pi] != b.Points[pi] {
					t.Fatalf("graph %s alg %s point %d: serial %+v, parallel %+v",
						sg.Graph.Name, a.Algorithm, pi, a.Points[pi], b.Points[pi])
				}
			}
		}
	}
}

// TestBuildCorpusCtxCanceled asserts a pre-canceled context aborts the
// build with ctx.Err() instead of a corpus.
func TestBuildCorpusCtxCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, parallelism := range []int{1, 4} {
		c, err := BuildCorpusCtx(ctx, parallelTestConfig(parallelism))
		if err == nil || c != nil {
			t.Fatalf("parallelism %d: corpus %v, err %v; want nil, context.Canceled",
				parallelism, c, err)
		}
		if err != context.Canceled {
			t.Fatalf("parallelism %d: err = %v, want context.Canceled", parallelism, err)
		}
	}
}

// TestBuildCorpusCtxBadDataset asserts unknown ids surface as errors.
func TestBuildCorpusCtxBadDataset(t *testing.T) {
	cfg := parallelTestConfig(1)
	cfg.Datasets = []string{"D99"}
	if _, err := BuildCorpusCtx(context.Background(), cfg); err == nil {
		t.Fatal("BuildCorpusCtx accepted unknown dataset id")
	}
}
