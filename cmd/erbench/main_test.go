package main

import (
	"context"
	"flag"
	"os"
	"testing"

	"github.com/ccer-go/ccer/internal/exp"
)

func runWithArgs(t *testing.T, args ...string) error {
	t.Helper()
	oldArgs := os.Args
	oldFlags := flag.CommandLine
	defer func() {
		os.Args = oldArgs
		flag.CommandLine = oldFlags
	}()
	flag.CommandLine = flag.NewFlagSet("erbench", flag.ContinueOnError)
	os.Args = append([]string{"erbench"}, args...)
	return run()
}

func TestErbenchSingleExperiment(t *testing.T) {
	err := runWithArgs(t, "-datasets", "D1", "-families", "SB-SYN",
		"-bahsteps", "500", "table4")
	if err != nil {
		t.Fatal(err)
	}
}

func TestErbenchErrors(t *testing.T) {
	if err := runWithArgs(t); err == nil {
		t.Fatal("missing experiment accepted")
	}
	if err := runWithArgs(t, "nonsense"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if err := runWithArgs(t, "-families", "BOGUS", "table4"); err == nil {
		t.Fatal("unknown family accepted")
	}
}

// Every advertised experiment id has a runner, and every runner succeeds
// on a minimal corpus.
func TestErbenchRunnersComplete(t *testing.T) {
	corpus, err := exp.BuildCorpusCtx(context.Background(), exp.Config{
		Seed:     1,
		Scale:    0.02,
		Datasets: []string{"D1", "D2"},
		BAHSteps: 500,
	})
	if err != nil {
		t.Fatal(err)
	}
	runners := experimentRunners(corpus)
	for _, id := range experimentOrder {
		runner, ok := runners[id]
		if !ok {
			t.Fatalf("experiment %q has no runner", id)
		}
		if err := runner(); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	for id := range runners {
		found := false
		for _, want := range experimentOrder {
			if id == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("runner %q not in experimentOrder", id)
		}
	}
}
