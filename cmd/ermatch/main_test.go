package main

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/ccer-go/ccer/internal/datagen"
)

func writeTask(t *testing.T) string {
	t.Helper()
	spec, err := datagen.SpecByID("D1")
	if err != nil {
		t.Fatal(err)
	}
	task := spec.Generate(3, 0.02)
	path := filepath.Join(t.TempDir(), "task.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := task.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	return path
}

func runWithArgs(t *testing.T, args ...string) error {
	t.Helper()
	oldArgs := os.Args
	oldFlags := flag.CommandLine
	defer func() {
		os.Args = oldArgs
		flag.CommandLine = oldFlags
	}()
	flag.CommandLine = flag.NewFlagSet("ermatch", flag.ContinueOnError)
	os.Args = append([]string{"ermatch"}, args...)
	return run()
}

// stdoutOf runs ermatch with args and returns what it printed to
// stdout.
func stdoutOf(t *testing.T, args ...string) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	old := os.Stdout
	os.Stdout = f
	err = runWithArgs(t, args...)
	os.Stdout = old
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestErmatchOutputPins pins the full stdout of two fixed-threshold runs
// on the test task: a schema-based char measure over one attribute, and a
// schema-agnostic token measure over the whole profile text.
func TestErmatchOutputPins(t *testing.T) {
	path := writeTask(t)
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-alg", "EXC", "-measure", "Jaro", "-attr", "name", "-t", "0.6", path}, "792336c7da3289db"},
		{[]string{"-measure", "Jaccard", "-t", "0.5", path}, "afebd5ff2d516996"},
	} {
		h := fnv.New64a()
		h.Write([]byte(stdoutOf(t, tc.args...)))
		if got := fmt.Sprintf("%016x", h.Sum64()); got != tc.want {
			t.Errorf("ermatch %v: stdout hash %s, pinned %s", tc.args[:len(tc.args)-1], got, tc.want)
		}
	}
}

// TestErmatchQLM: -alg resolves through the shared algorithm registry,
// so the Q-learning matcher the library and erserve accept runs here
// too.
func TestErmatchQLM(t *testing.T) {
	out := stdoutOf(t, "-alg", "QLM", "-measure", "Jaccard", "-t", "0.5", writeTask(t))
	if !strings.Contains(out, "QLM at t=0.50:") {
		t.Fatalf("QLM run printed:\n%s", out)
	}
}

func TestErmatchSweep(t *testing.T) {
	path := writeTask(t)
	if err := runWithArgs(t, "-alg", "UMC", "-measure", "Jaccard", "-sweep", path); err != nil {
		t.Fatal(err)
	}
}

func TestErmatchFixedThreshold(t *testing.T) {
	path := writeTask(t)
	if err := runWithArgs(t, "-alg", "EXC", "-measure", "Jaro", "-attr", "name", "-t", "0.6", path); err != nil {
		t.Fatal(err)
	}
}

func TestErmatchErrors(t *testing.T) {
	path := writeTask(t)
	if err := runWithArgs(t); err == nil {
		t.Fatal("missing task file accepted")
	}
	if err := runWithArgs(t, "-alg", "XXX", path); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if err := runWithArgs(t, "-measure", "XXX", path); err == nil {
		t.Fatal("unknown measure accepted")
	}
	if err := runWithArgs(t, filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}
