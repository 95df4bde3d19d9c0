package runner

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// sleepTask returns i after a scheduling-dependent delay, so completion
// order scrambles while submission order must survive.
func sleepTask(i int) Task[int] {
	return Task[int]{Label: fmt.Sprintf("t%d", i), Run: func(context.Context) (int, error) {
		// Later submissions sleep less, inverting completion order.
		time.Sleep(time.Duration(50-i%50) * time.Microsecond)
		return i, nil
	}}
}

func TestRunOrdersResultsBySubmission(t *testing.T) {
	p := New(8)
	const n = 200
	tasks := make([]Task[int], n)
	for i := range tasks {
		tasks[i] = sleepTask(i)
	}
	results, err := Run(context.Background(), p, tasks)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r != i {
			t.Fatalf("results[%d] = %d, want %d", i, r, i)
		}
	}
	s := p.Stats()
	if s.Completed != n || s.Failed != 0 {
		t.Errorf("stats = %+v, want %d completed", s, n)
	}
	if s.Busy <= 0 || s.Wall <= 0 {
		t.Errorf("stats missing timings: %+v", s)
	}
}

func TestRunSerialMatchesParallel(t *testing.T) {
	build := func() []Task[int] {
		tasks := make([]Task[int], 64)
		for i := range tasks {
			tasks[i] = sleepTask(i)
		}
		return tasks
	}
	serial, err := Run(context.Background(), New(1), build())
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(context.Background(), New(8), build())
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("index %d: serial %d != parallel %d", i, serial[i], parallel[i])
		}
	}
}

func TestRunErrorCarriesLabelAndCancelsBatch(t *testing.T) {
	p := New(4)
	boom := errors.New("boom")
	var started atomic.Int64
	tasks := make([]Task[int], 100)
	for i := range tasks {
		i := i
		tasks[i] = Task[int]{Label: fmt.Sprintf("run/%d", i), Run: func(context.Context) (int, error) {
			started.Add(1)
			if i == 3 {
				return 0, boom
			}
			time.Sleep(100 * time.Microsecond)
			return i, nil
		}}
	}
	_, err := Run(context.Background(), p, tasks)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if !strings.Contains(err.Error(), "run/3") {
		t.Errorf("error %q missing failing task's label", err)
	}
	if n := started.Load(); n == 100 {
		t.Error("cancellation did not skip any queued tasks")
	}
}

func TestRunEarliestErrorWins(t *testing.T) {
	// Two failures race; the earlier submission index must be reported,
	// as a serial execution would.
	p := New(2)
	tasks := []Task[int]{
		{Label: "slow-fail", Run: func(context.Context) (int, error) {
			time.Sleep(2 * time.Millisecond)
			return 0, errors.New("first")
		}},
		{Label: "fast-fail", Run: func(context.Context) (int, error) {
			return 0, errors.New("second")
		}},
	}
	_, err := Run(context.Background(), p, tasks)
	if err == nil || !strings.Contains(err.Error(), "slow-fail") {
		t.Fatalf("err = %v, want the earlier submission's failure", err)
	}
}

func TestRunContextCancellation(t *testing.T) {
	p := New(2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran atomic.Int64
	tasks := make([]Task[int], 50)
	for i := range tasks {
		i := i
		tasks[i] = Task[int]{Label: fmt.Sprintf("c%d", i), Run: func(context.Context) (int, error) {
			if ran.Add(1) == 3 {
				cancel()
			}
			time.Sleep(50 * time.Microsecond)
			return i, nil
		}}
	}
	_, err := Run(ctx, p, tasks)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n == 50 {
		t.Error("cancellation did not stop the batch")
	}
}

func TestRunConcurrencyBounded(t *testing.T) {
	const jobs = 3
	p := New(jobs)
	var cur, peak atomic.Int64
	tasks := make([]Task[int], 60)
	for i := range tasks {
		i := i
		tasks[i] = Task[int]{Label: fmt.Sprintf("b%d", i), Run: func(context.Context) (int, error) {
			n := cur.Add(1)
			for {
				old := peak.Load()
				if n <= old || peak.CompareAndSwap(old, n) {
					break
				}
			}
			time.Sleep(200 * time.Microsecond)
			cur.Add(-1)
			return i, nil
		}}
	}
	if _, err := Run(context.Background(), p, tasks); err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got > jobs {
		t.Errorf("observed %d concurrent tasks, pool size %d", got, jobs)
	}
}

func TestRunEmptyAndDefaults(t *testing.T) {
	p := New(0)
	if p.Jobs() < 1 {
		t.Errorf("New(0).Jobs() = %d, want >= 1", p.Jobs())
	}
	res, err := Run[int](context.Background(), p, nil)
	if err != nil || len(res) != 0 {
		t.Errorf("empty batch: res=%v err=%v", res, err)
	}
}

func TestProgressEventsSerializedWithETA(t *testing.T) {
	p := New(4)
	var mu sync.Mutex
	var events []Event
	p.SetProgress(func(ev Event) {
		// Called under the pool's lock: appending without extra locking
		// here would still be safe, but the race detector should agree.
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	})
	tasks := make([]Task[int], 20)
	for i := range tasks {
		tasks[i] = sleepTask(i)
	}
	if _, err := Run(context.Background(), p, tasks); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(events) != 20 {
		t.Fatalf("got %d events, want 20", len(events))
	}
	last := events[len(events)-1]
	if last.Completed != 20 {
		t.Errorf("last event Completed = %d, want 20", last.Completed)
	}
	if last.ETA != 0 {
		t.Errorf("final ETA = %v, want 0 (no work left)", last.ETA)
	}
}

func TestStatsSpeedupAndString(t *testing.T) {
	s := Stats{Jobs: 4, Completed: 10, Wall: time.Second, Busy: 3 * time.Second}
	if got := s.Speedup(); got < 2.9 || got > 3.1 {
		t.Errorf("Speedup = %g, want ~3", got)
	}
	if str := s.String(); !strings.Contains(str, "10 runs") || !strings.Contains(str, "4 jobs") {
		t.Errorf("String = %q", str)
	}
	if (Stats{}).Speedup() != 0 {
		t.Error("zero stats speedup not 0")
	}
}

// TestRunWithPerWorkerState checks RunWith's state contract: each
// worker goroutine makes its state once per batch, never shares it with
// a concurrent task, and every task runs with some worker's state.
// A second batch on the same pool starts from new states.
func TestRunWithPerWorkerState(t *testing.T) {
	type state struct{ busy atomic.Bool }
	p := New(3)
	var made atomic.Int32
	newState := func() *state { made.Add(1); return new(state) }
	const n = 60
	tasks := make([]StateTask[*state, int], n)
	for i := range tasks {
		tasks[i] = StateTask[*state, int]{Label: fmt.Sprintf("t%d", i), Run: func(_ context.Context, s *state) (int, error) {
			if !s.busy.CompareAndSwap(false, true) {
				return 0, errors.New("two tasks ran on one worker's state at once")
			}
			defer s.busy.Store(false)
			time.Sleep(time.Duration(i%5) * 10 * time.Microsecond)
			return i, nil
		}}
	}
	for batch := 1; batch <= 2; batch++ {
		results, err := RunWith(context.Background(), p, newState, tasks)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range results {
			if r != i {
				t.Fatalf("batch %d: results[%d] = %d", batch, i, r)
			}
		}
		if got := made.Load(); got != int32(3*batch) {
			t.Fatalf("after batch %d, %d states were made, want one per worker per batch (%d)", batch, got, 3*batch)
		}
	}
}
