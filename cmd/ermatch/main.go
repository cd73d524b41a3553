// Command ermatch runs one bipartite matching algorithm on a task file
// produced by ergen, reporting the matching and its quality.
//
// Usage:
//
//	ermatch [-alg NAME] [-measure NAME] [-attr ATTR] [-t F] [-sweep] <task.json>
//
// The similarity graph is built with the chosen string measure over the
// chosen attribute (or the schema-agnostic profile text if -attr is
// empty). With -sweep, the threshold grid 0.05..1.00 is searched and the
// best configuration is reported; otherwise the matching at -t is
// printed.
//
// Example:
//
//	ergen -out d2.json D2
//	ermatch -alg UMC -measure Jaccard -sweep d2.json
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"github.com/ccer-go/ccer/internal/algo"
	"github.com/ccer-go/ccer/internal/dataset"
	"github.com/ccer-go/ccer/internal/eval"
	"github.com/ccer-go/ccer/internal/simgraph"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ermatch:", err)
		os.Exit(1)
	}
}

func run() error {
	alg := flag.String("alg", "UMC", "algorithm: CNC,RSR,RCA,BAH,BMC,EXC,KRC,UMC,HUN,AUC,QLM")
	measure := flag.String("measure", "Jaccard", "string similarity measure")
	attr := flag.String("attr", "", "attribute to compare (default: all values)")
	t := flag.Float64("t", 0.5, "similarity threshold")
	sweep := flag.Bool("sweep", false, "tune the threshold on the grid 0.05..1.00")
	seed := flag.Int64("seed", 1, "seed for the stochastic BAH and QLM algorithms")
	flag.Parse()
	if flag.NArg() != 1 {
		return fmt.Errorf("need exactly one task file")
	}

	f, err := os.Open(flag.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	task, err := dataset.ReadTaskJSON(f)
	if err != nil {
		return err
	}

	if err := simgraph.CheckMeasure(*measure); err != nil {
		return err
	}
	matcher, err := algo.ByName(*alg, *seed)
	if err != nil {
		return err
	}

	var texts1, texts2 []string
	if *attr != "" {
		texts1 = task.V1.AttrTexts(*attr)
		texts2 = task.V2.AttrTexts(*attr)
	} else {
		texts1 = task.V1.Texts()
		texts2 = task.V2.Texts()
	}

	g, _, err := simgraph.MeasureGraph(context.Background(), texts1, texts2, *measure, 0, 0)
	if err != nil {
		return err
	}
	fmt.Printf("graph: |V1|=%d |V2|=%d |E|=%d (density %.1f%%)\n",
		g.N1(), g.N2(), g.NumEdges(), 100*g.Density())

	if *sweep {
		res := eval.Sweep(g, task.GT, matcher, 1)
		fmt.Printf("%s best: t=%.2f precision=%.3f recall=%.3f F1=%.3f (runtime %v)\n",
			res.Algorithm, res.BestT, res.Best.Precision, res.Best.Recall,
			res.Best.F1, res.Runtime)
		return nil
	}

	pairs := matcher.Match(g, *t)
	m := eval.Evaluate(pairs, task.GT)
	fmt.Printf("%s at t=%.2f: %d pairs, precision=%.3f recall=%.3f F1=%.3f\n",
		matcher.Name(), *t, len(pairs), m.Precision, m.Recall, m.F1)
	for _, p := range pairs {
		mark := " "
		if task.GT.IsMatch(p.U, p.V) {
			mark = "*"
		}
		fmt.Printf("%s %-30s  <->  %-30s  (%.3f)\n", mark,
			task.V1.Profiles[p.U].ID, task.V2.Profiles[p.V].ID, p.W)
	}
	return nil
}
