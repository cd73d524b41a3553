package resilience

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestGroupCoalesces: N concurrent callers of one key share exactly one
// execution and all see the same value; the hit counter records N-1.
func TestGroupCoalesces(t *testing.T) {
	var g Group[string, int]
	var execs atomic.Int64
	release := make(chan struct{})

	const n = 8
	results := make([]int, n)
	sharedFlags := make([]bool, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, shared, err := g.Do(context.Background(), "k", func(context.Context) (int, error) {
				execs.Add(1)
				<-release
				return 42, nil
			})
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
			}
			results[i], sharedFlags[i] = v, shared
		}(i)
	}
	// Wait until every caller is attached (1 lead + n-1 hits), then let
	// the single execution finish.
	deadline := time.Now().Add(5 * time.Second)
	for g.Hits() < n-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d hits registered, want %d", g.Hits(), n-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if got := execs.Load(); got != 1 {
		t.Fatalf("fn executed %d times, want 1", got)
	}
	shared := 0
	for i := range results {
		if results[i] != 42 {
			t.Fatalf("caller %d got %d, want 42", i, results[i])
		}
		if sharedFlags[i] {
			shared++
		}
	}
	if shared != n-1 {
		t.Fatalf("%d callers report shared, want %d", shared, n-1)
	}
	if g.Hits() != n-1 {
		t.Fatalf("hits=%d, want %d", g.Hits(), n-1)
	}
	if g.InFlight() != 0 {
		t.Fatalf("%d flights still registered after completion", g.InFlight())
	}
}

// TestGroupSequentialCallsDoNotCoalesce: back-to-back calls each
// execute; nothing stale is served after a flight completes.
func TestGroupSequentialCallsDoNotCoalesce(t *testing.T) {
	var g Group[string, int]
	var execs atomic.Int64
	for i := 0; i < 3; i++ {
		v, shared, err := g.Do(context.Background(), "k", func(context.Context) (int, error) {
			return int(execs.Add(1)), nil
		})
		if err != nil || shared {
			t.Fatalf("call %d: v=%d shared=%v err=%v", i, v, shared, err)
		}
		if v != i+1 {
			t.Fatalf("call %d served stale value %d", i, v)
		}
	}
}

// TestGroupErrorShared: a failing execution delivers the same error to
// every attached caller.
func TestGroupErrorShared(t *testing.T) {
	var g Group[string, int]
	boom := errors.New("boom")
	release := make(chan struct{})
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = g.Do(context.Background(), "k", func(context.Context) (int, error) {
				<-release
				return 0, boom
			})
		}(i)
	}
	for g.Hits() < 3 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, boom) {
			t.Fatalf("caller %d: err = %v, want boom", i, err)
		}
	}
}

// TestGroupWaiterCancelLeavesFlight: a waiter whose context dies gets
// ctx.Err() while the execution completes for the caller that stays.
func TestGroupWaiterCancelLeavesFlight(t *testing.T) {
	var g Group[string, int]
	release := make(chan struct{})
	started := make(chan struct{})

	var stayV int
	var stayErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		stayV, _, stayErr = g.Do(context.Background(), "k", func(context.Context) (int, error) {
			close(started)
			<-release
			return 7, nil
		})
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		for g.Hits() < 1 {
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	_, shared, err := g.Do(ctx, "k", func(context.Context) (int, error) {
		t.Error("waiter must not lead")
		return 0, nil
	})
	if !shared || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter: shared=%v err=%v", shared, err)
	}

	close(release)
	<-done
	if stayErr != nil || stayV != 7 {
		t.Fatalf("staying caller: v=%d err=%v, want 7/nil", stayV, stayErr)
	}
}

// TestGroupAllCallersGoneCancelsFlight: when the last interested caller
// hangs up, the flight's context is cancelled so the computation can
// stop doing work nobody wants.
func TestGroupAllCallersGoneCancelsFlight(t *testing.T) {
	var g Group[string, int]
	flightCancelled := make(chan struct{})
	started := make(chan struct{})

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-started
		cancel()
	}()
	_, _, err := g.Do(ctx, "k", func(fctx context.Context) (int, error) {
		close(started)
		<-fctx.Done()
		close(flightCancelled)
		return 0, fctx.Err()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want canceled", err)
	}
	select {
	case <-flightCancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("flight context never cancelled after last caller left")
	}
}

// TestGroupDistinctKeysRunConcurrently: different keys never share.
func TestGroupDistinctKeysRunConcurrently(t *testing.T) {
	var g Group[int, int]
	var execs atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, shared, err := g.Do(context.Background(), i, func(context.Context) (int, error) {
				execs.Add(1)
				return i * i, nil
			})
			if err != nil || shared || v != i*i {
				t.Errorf("key %d: v=%d shared=%v err=%v", i, v, shared, err)
			}
		}(i)
	}
	wg.Wait()
	if execs.Load() != 4 {
		t.Fatalf("execs = %d, want 4", execs.Load())
	}
}

// TestGroupHammer is the -race workout: many goroutines over few keys,
// with a sprinkling of cancellations.
func TestGroupHammer(t *testing.T) {
	var g Group[int, int]
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for r := 0; r < 50; r++ {
				ctx := context.Background()
				var cancel context.CancelFunc = func() {}
				if (i+r)%7 == 0 {
					ctx, cancel = context.WithTimeout(ctx, time.Microsecond)
				}
				key := r % 3
				v, _, err := g.Do(ctx, key, func(fctx context.Context) (int, error) {
					time.Sleep(50 * time.Microsecond)
					return key * 10, nil
				})
				cancel()
				if err == nil && v != key*10 {
					t.Errorf("key %d returned %d", key, v)
				}
			}
		}(i)
	}
	wg.Wait()
	// Every flight must eventually drain from the table.
	deadline := time.Now().Add(5 * time.Second)
	for g.InFlight() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d flights leaked", g.InFlight())
		}
		time.Sleep(time.Millisecond)
	}
}

// InFlight is the number of executions currently registered; the
// tests read it to see every flight leave the table.
func (g *Group[K, V]) InFlight() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.flights)
}
