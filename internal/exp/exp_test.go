package exp

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

var (
	corpusOnce sync.Once
	testCorpus *Corpus
	corpusErr  error
)

// sharedCorpus builds a small but complete corpus once for all tests:
// three datasets covering the three categories, all four weight families.
func sharedCorpus(t *testing.T) *Corpus {
	t.Helper()
	corpusOnce.Do(func() {
		testCorpus, corpusErr = BuildCorpusCtx(context.Background(), Config{
			Seed:     42,
			Scale:    0.02,
			Datasets: []string{"D1", "D2", "D3"},
			BAHSteps: 2000,
			BAHTime:  5 * time.Second,
		})
	})
	if corpusErr != nil {
		t.Fatal(corpusErr)
	}
	return testCorpus
}

func TestBuildCorpusBasics(t *testing.T) {
	c := sharedCorpus(t)
	if len(c.Graphs) == 0 {
		t.Fatal("empty corpus")
	}
	if len(c.Tasks) != 3 || len(c.Specs) != 3 {
		t.Fatalf("tasks/specs = %d/%d, want 3/3", len(c.Tasks), len(c.Specs))
	}
	for _, gr := range c.Graphs {
		if len(gr.Results) != 8 {
			t.Fatalf("%s: %d results, want 8", gr.Graph.Name, len(gr.Results))
		}
		for i, r := range gr.Results {
			if r.Algorithm != c.Algorithms()[i] {
				t.Fatalf("result order broken: %s at %d", r.Algorithm, i)
			}
			if len(r.Points) != 20 {
				t.Fatalf("%s/%s: %d sweep points", gr.Graph.Name, r.Algorithm, len(r.Points))
			}
			if r.Best.F1 < 0 || r.Best.F1 > 1 {
				t.Fatalf("F1 out of range: %v", r.Best.F1)
			}
			if r.BestT < 0.05 || r.BestT > 1.0 {
				t.Fatalf("BestT out of range: %v", r.BestT)
			}
		}
	}
}

func TestCorpusCleaning(t *testing.T) {
	c := sharedCorpus(t)
	// Post-cleaning invariant: every surviving graph has some algorithm
	// with F1 >= 0.25.
	for _, gr := range c.Graphs {
		ok := false
		for _, f1 := range gr.F1s() {
			if f1 >= 0.25 {
				ok = true
			}
		}
		if !ok {
			t.Fatalf("noisy graph survived: %s/%s", gr.Graph.Dataset, gr.Graph.Name)
		}
	}
	if c.DroppedNoisy == 0 {
		t.Log("note: no noisy graphs dropped (possible but unusual)")
	}
}

func TestCorpusGroupings(t *testing.T) {
	c := sharedCorpus(t)
	byFam := c.ByFamily()
	total := 0
	for _, graphs := range byFam {
		total += len(graphs)
	}
	if total != len(c.Graphs) {
		t.Fatalf("ByFamily loses graphs: %d != %d", total, len(c.Graphs))
	}
	ids := c.DatasetIDs()
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] && !(ids[i-1] == "D9" && ids[i] == "D10") {
			// String order equals numeric order for D1..D9.
			if ids[i-1] > ids[i] {
				t.Fatalf("DatasetIDs out of order: %v", ids)
			}
		}
	}
}

func TestTable2(t *testing.T) {
	c := sharedCorpus(t)
	tab := c.Table2()
	if len(tab.Rows) != 3 {
		t.Fatalf("Table2 rows = %d, want 3", len(tab.Rows))
	}
	if !strings.Contains(tab.Render(), "D2") {
		t.Fatal("Table2 render missing D2")
	}
}

func TestTable3(t *testing.T) {
	c := sharedCorpus(t)
	d, tab := c.Table3()
	if len(tab.Rows) == 0 {
		t.Fatal("Table3 empty")
	}
	total := 0
	for _, byFam := range d.Count {
		for _, n := range byFam {
			total += n
		}
	}
	if total != len(c.Graphs) {
		t.Fatalf("Table3 counts %d graphs, corpus has %d", total, len(c.Graphs))
	}
}

func TestTable4(t *testing.T) {
	c := sharedCorpus(t)
	d, tab := c.Table4()
	if len(d.Algorithms) != 8 || len(tab.Rows) != 8 {
		t.Fatalf("Table4 shape wrong: %d algorithms", len(d.Algorithms))
	}
	for i := range d.Algorithms {
		if d.F1Mean[i] < 0 || d.F1Mean[i] > 1 {
			t.Fatalf("F1 mean out of range: %v", d.F1Mean[i])
		}
		// Harmonic mean is at most the max of P and R.
		if d.F1Mean[i] > d.PrecMean[i]+d.RecMean[i] {
			t.Fatalf("impossible metric relation for %s", d.Algorithms[i])
		}
	}
}

func TestTable5(t *testing.T) {
	c := sharedCorpus(t)
	d, tables := c.Table5()
	if len(tables) == 0 {
		t.Fatal("Table5 empty")
	}
	byFam := c.ByFamily()
	for fam, byCat := range d.Stats {
		ovl := byCat["OVL"]
		// In every family, each graph awards at least one Top1 (ties
		// may award several).
		sum := 0
		for _, n := range ovl.Top1 {
			sum += n
		}
		if sum < len(byFam[fam]) {
			t.Fatalf("%s: Top1 total %d < %d graphs", fam, sum, len(byFam[fam]))
		}
	}
}

func TestTable6(t *testing.T) {
	c := sharedCorpus(t)
	d, tables := c.Table6()
	if len(tables) == 0 {
		t.Fatal("Table6 empty")
	}
	for fam, byDS := range d.Mean {
		for ds, means := range byDS {
			for i, mean := range means {
				if mean < 0 {
					t.Fatalf("%s/%s/%s: negative runtime", fam, ds, c.Algorithms()[i])
				}
			}
		}
	}
}

func TestTable7(t *testing.T) {
	c := sharedCorpus(t)
	d, tab := c.Table7()
	// D2 and D3 are in the corpus; both have published numbers.
	if len(d.Datasets) != 2 {
		t.Fatalf("Table7 datasets = %v, want [D2 D3]", d.Datasets)
	}
	for i := range d.Datasets {
		if d.UMC[i] < 0 || d.UMC[i] > 1 {
			t.Fatalf("UMC F1 out of range: %v", d.UMC[i])
		}
		if d.Config[i] == "" {
			t.Fatal("missing winning config")
		}
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("Table7 rows = %d", len(tab.Rows))
	}
}

func TestTable8(t *testing.T) {
	c := sharedCorpus(t)
	d, tables := c.Table8()
	if len(tables) == 0 {
		t.Fatal("Table8 empty")
	}
	for fam, descs := range d.Desc {
		for i, desc := range descs {
			if desc.Mean < 0.05-1e-9 || desc.Mean > 1+1e-9 {
				t.Fatalf("%s/%s: threshold mean %v out of grid", fam, c.Algorithms()[i], desc.Mean)
			}
		}
		for _, r := range d.Corr[fam] {
			if r < -1-1e-9 || r > 1+1e-9 {
				t.Fatalf("correlation out of range: %v", r)
			}
		}
	}
}

func TestTable9(t *testing.T) {
	c := sharedCorpus(t)
	d, tables := c.Table9()
	if len(tables) == 0 {
		t.Fatal("Table9 empty")
	}
	for fam, byDS := range d.Mean {
		for ds, means := range byDS {
			for _, mean := range means {
				if mean < 0.05-1e-9 || mean > 1+1e-9 {
					t.Fatalf("%s/%s: mean threshold %v out of grid", fam, ds, mean)
				}
			}
		}
	}
}

func TestFig2AndNemenyi(t *testing.T) {
	c := sharedCorpus(t)
	d, tab, err := c.Fig2()
	if err != nil {
		t.Fatal(err)
	}
	if d.Friedman.K != 8 {
		t.Fatalf("K = %d, want 8", d.Friedman.K)
	}
	if d.Friedman.N != len(c.Graphs) {
		t.Fatalf("N = %d, want %d", d.Friedman.N, len(c.Graphs))
	}
	if d.CD <= 0 {
		t.Fatalf("CD = %v", d.CD)
	}
	if len(tab.Rows) != 8 {
		t.Fatalf("Fig2 rows = %d", len(tab.Rows))
	}
	// Mean ranks ordered ascending in the rendered order.
	for i := 1; i < len(d.Order); i++ {
		if d.Friedman.MeanRanks[d.Order[i-1]] > d.Friedman.MeanRanks[d.Order[i]] {
			t.Fatal("Fig2 order not by mean rank")
		}
	}
	if _, _, err := c.Fig7(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Fig8(); err != nil {
		t.Fatal(err)
	}
}

func TestFig3(t *testing.T) {
	c := sharedCorpus(t)
	d, tables := c.Fig3()
	if len(tables) == 0 {
		t.Fatal("Fig3 empty")
	}
	for fam, desc := range d.Desc {
		for m := 0; m < 3; m++ {
			for i, ds := range desc[m] {
				if ds.N == 0 {
					t.Fatalf("%s metric %d alg %s: empty sample", fam, m, c.Algorithms()[i])
				}
			}
		}
	}
}

func TestFig4(t *testing.T) {
	c := sharedCorpus(t)
	d, tables := c.Fig4()
	if len(tables) == 0 {
		t.Fatal("Fig4 empty")
	}
	for fam, series := range d.Points {
		for i, pts := range series {
			for p := 1; p < len(pts); p++ {
				if pts[p][0] < pts[p-1][0] {
					t.Fatalf("%s/%s: series not sorted by edges", fam, c.Algorithms()[i])
				}
			}
		}
	}
}

func TestFig5AndFig10(t *testing.T) {
	c := sharedCorpus(t)
	pts, _ := c.Fig5()
	if len(pts) == 0 {
		t.Fatal("Fig5 empty (D1 in corpus)")
	}
	for _, p := range pts {
		if p.MeanF1 < 0 || p.MeanF1 > 1 || p.MeanRT < 0 {
			t.Fatalf("bad tradeoff point %+v", p)
		}
	}
	byDS, tables := c.Fig10()
	if len(byDS) == 0 || len(tables) == 0 {
		t.Fatal("Fig10 empty")
	}
	for ds, pts := range byDS {
		if ds == "D1" {
			t.Fatal("Fig10 must exclude D1")
		}
		for _, p := range pts {
			if p.Algorithm == "BAH" {
				t.Fatal("Fig10 must exclude BAH")
			}
		}
	}
}

func TestFig9(t *testing.T) {
	c := sharedCorpus(t)
	d, tables := c.Fig9()
	if len(tables) == 0 {
		t.Fatal("Fig9 empty")
	}
	for fam, corr := range d.Corr {
		k := len(corr)
		for i := 0; i < k; i++ {
			if corr[i][i] != 1 {
				t.Fatalf("%s: diagonal not 1", fam)
			}
			for j := 0; j < k; j++ {
				if corr[i][j] != corr[j][i] {
					t.Fatalf("%s: correlation matrix not symmetric", fam)
				}
			}
		}
	}
}

func TestRenderTables(t *testing.T) {
	c := sharedCorpus(t)
	_, t4 := c.Table4()
	out := t4.Render()
	if !strings.Contains(out, "UMC") || !strings.Contains(out, "F1 μ") {
		t.Fatalf("Table4 render:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Title + header + separator + 8 rows.
	if len(lines) != 11 {
		t.Fatalf("Table4 render has %d lines", len(lines))
	}
}

func TestAblationThreshold(t *testing.T) {
	c := sharedCorpus(t)
	d, tab := c.AblationThreshold()
	if len(tab.Rows) != 8 {
		t.Fatalf("ablation rows = %d", len(tab.Rows))
	}
	for p := range d.MeanF1 {
		for i, f1 := range d.MeanF1[p] {
			if f1 < 0 || f1 > 1 {
				t.Fatalf("policy %d alg %s: F1 %v", p, d.Algorithms[i], f1)
			}
		}
	}
	// The oracle upper-bounds both label-free policies on every
	// algorithm (it optimizes the same objective).
	for i := range d.Algorithms {
		if d.MeanF1[1][i] > d.MeanF1[0][i]+1e-9 || d.MeanF1[2][i] > d.MeanF1[0][i]+1e-9 {
			t.Fatalf("label-free policy beats the oracle for %s", d.Algorithms[i])
		}
	}
	// The estimator should be competitive: at least 60% of oracle F1 on
	// UMC (in practice it is much closer).
	umc := algIndex("UMC")
	if d.MeanF1[1][umc] < 0.6*d.MeanF1[0][umc] {
		t.Fatalf("estimated threshold recovers only %.0f%% of oracle F1",
			100*d.MeanF1[1][umc]/d.MeanF1[0][umc])
	}
}

func TestAblationBMCBasis(t *testing.T) {
	c := sharedCorpus(t)
	d, tab := c.AblationBMCBasis()
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Auto is the max of the two bases per graph, so its mean dominates.
	if d.MeanF1[2] < d.MeanF1[0]-1e-9 || d.MeanF1[2] < d.MeanF1[1]-1e-9 {
		t.Fatalf("BasisAuto mean F1 %v below a fixed basis (%v, %v)",
			d.MeanF1[2], d.MeanF1[0], d.MeanF1[1])
	}
}
