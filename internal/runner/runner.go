// Package runner schedules independent simulation runs across a pool of
// worker goroutines. It exists so the experiment harness can regenerate
// the paper's hundreds of runs in parallel while keeping the rendered
// artifacts bit-identical to a serial execution: results are keyed by
// submission index, never by completion order, so a table built from a
// batch's results is the same table no matter how the scheduler
// interleaved the work.
//
// The pool provides bounded-queue backpressure (a batch feeds workers
// through a channel sized to the worker count, so huge batches never
// buffer fully), first-error capture with the failing task's label,
// cancellation through context.Context, and cumulative statistics
// (runs completed, wall time, busy time) for speedup reporting.
//
// The pool is also the campaign's fault boundary (see fault.go and
// docs/ROBUSTNESS.md): task panics are recovered into *PanicError, a
// failure either cancels the batch (FailFast) or is summarized at the
// end (RunToCompletion), and Transient tasks retry with backoff.
//
//simlint:hostcode:package "the pool times real host execution (wall time, busy time, retry backoff); no simulated state reads the host clock"
package runner

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"ropsim/internal/stats"
)

// Task is one unit of work: a labeled closure producing a result. The
// label identifies the run in error messages and progress events.
type Task[R any] struct {
	// Label names the run in error messages, progress events and the
	// stats artifact.
	Label string
	// Run executes the task; ctx is cancelled when the pool aborts.
	Run func(ctx context.Context) (R, error)
	// Transient opts the task into the pool's bounded retry-with-backoff
	// (SetRetry): its failures are assumed recoverable (filesystem
	// hiccups, injected faults) and re-attempted before counting.
	Transient bool
}

// Func wraps a plain function as a labeled task.
func Func[R any](label string, fn func(ctx context.Context) (R, error)) Task[R] {
	return Task[R]{Label: label, Run: fn}
}

// Event describes one completed (or failed) task, delivered to the
// pool's progress callback.
type Event struct {
	// Label is the task's label.
	Label string
	// Err is the task's error, nil on success.
	Err error
	// Duration is how long the task ran.
	Duration time.Duration
	// Completed and Submitted are the pool's cumulative counts at the
	// time of the event.
	Completed, Submitted int64
	// ETA estimates the remaining wall time for the submitted work
	// (zero when unknown). It assumes tasks of mean duration spread
	// across the pool's workers.
	ETA time.Duration
}

// Pool schedules tasks across a fixed number of workers and accumulates
// statistics across batches. The zero value is not usable; construct
// with New. A Pool may serve many Run batches, concurrently or in
// sequence; all statistics are cumulative.
type Pool struct {
	jobs int

	mu        sync.Mutex
	started   time.Time // first task start, for wall time
	stopped   time.Time // last task end
	submitted int64
	busy      time.Duration
	durMean   stats.Mean
	progress  func(Event)

	policy    Policy
	retryMax  int     // extra attempts for Transient tasks
	retry     Backoff // delay schedule between attempts
	faultHook func(label string, attempt int) error

	completed stats.AtomicCounter
	failed    stats.AtomicCounter
	retried   stats.AtomicCounter
	panicked  stats.AtomicCounter
}

// SetPolicy selects the pool's failure policy (default FailFast).
// Install before submitting work.
func (p *Pool) SetPolicy(pol Policy) {
	p.mu.Lock()
	p.policy = pol
	p.mu.Unlock()
}

// Policy reports the pool's failure policy.
func (p *Pool) Policy() Policy {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.policy
}

// SetRetry configures bounded retry for Transient tasks: up to max
// re-attempts under DefaultRetryBackoff(backoff) — exponential delays
// from the given base with 25% seeded jitter, a 30 s per-delay cap and
// a 2 min total budget. max <= 0 disables retry (the default). Use
// SetRetryBackoff for full schedule control. Install before submitting
// work.
func (p *Pool) SetRetry(max int, backoff time.Duration) {
	p.SetRetryBackoff(max, DefaultRetryBackoff(backoff))
}

// SetRetryBackoff configures bounded retry for Transient tasks with an
// explicit delay schedule: up to max re-attempts, sleeping per b
// between tries. Each task derives its own deterministic schedule from
// (b.Seed, task label), so retry timing is reproducible and tasks
// never retry in lockstep. Install before submitting work.
func (p *Pool) SetRetryBackoff(max int, b Backoff) {
	p.mu.Lock()
	p.retryMax, p.retry = max, b
	p.mu.Unlock()
}

// SetFaultHook installs a fault-injection hook invoked before every
// task attempt (attempt counts from 0). The hook may return an error
// (simulating a transient failure), panic (simulating a crashing run),
// or block (simulating a hang); the returned error, if any, replaces
// the task execution for that attempt. Testing only — nil in
// production. Install before submitting work.
func (p *Pool) SetFaultHook(fn func(label string, attempt int) error) {
	p.mu.Lock()
	p.faultHook = fn
	p.mu.Unlock()
}

// runConfig snapshots the pool's per-batch behavior knobs.
func (p *Pool) runConfig() (Policy, int, Backoff, func(string, int) error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.policy, p.retryMax, p.retry, p.faultHook
}

// New returns a pool of the given size. jobs <= 0 selects
// runtime.GOMAXPROCS(0); jobs == 1 yields serial execution.
func New(jobs int) *Pool {
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	return &Pool{jobs: jobs}
}

// Jobs reports the worker count.
func (p *Pool) Jobs() int { return p.jobs }

// SetProgress installs a callback invoked after every task completion.
// The pool serializes calls, so the callback may write to a shared sink
// without further locking. Install before submitting work.
func (p *Pool) SetProgress(fn func(Event)) {
	p.mu.Lock()
	p.progress = fn
	p.mu.Unlock()
}

// Stats is a snapshot of the pool's cumulative work.
type Stats struct {
	// Jobs is the worker count.
	Jobs int
	// Completed counts successfully finished tasks; Failed counts
	// tasks that returned an error.
	Completed, Failed int64
	// Retried counts re-attempts of Transient tasks; Panicked counts
	// task panics recovered into errors (both cumulative).
	Retried, Panicked int64
	// Wall is the elapsed time between the first task starting and the
	// last task finishing (so far).
	Wall time.Duration
	// Busy is the summed duration of all tasks — the serial-equivalent
	// execution time. When workers outnumber available CPUs, each
	// task's duration includes time-slicing, so Busy (and Speedup)
	// overestimate the serial baseline; with jobs <= CPUs it is tight.
	Busy time.Duration
}

// Speedup reports Busy/Wall, the achieved speedup over a serial
// execution of the same tasks (0 when no work ran).
func (s Stats) Speedup() float64 {
	if s.Wall <= 0 {
		return 0
	}
	return s.Busy.Seconds() / s.Wall.Seconds()
}

// String renders the stats as a one-line summary; failure, retry and
// panic counts appear only when non-zero.
func (s Stats) String() string {
	line := fmt.Sprintf("%d runs in %s wall (%d jobs, %s serial-equivalent, %.2fx speedup)",
		s.Completed, s.Wall.Round(time.Millisecond), s.Jobs,
		s.Busy.Round(time.Millisecond), s.Speedup())
	if s.Failed > 0 || s.Retried > 0 || s.Panicked > 0 {
		line += fmt.Sprintf(" [failed=%d retried=%d panicked=%d]", s.Failed, s.Retried, s.Panicked)
	}
	return line
}

// Stats snapshots the pool's cumulative counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	var wall time.Duration
	if !p.started.IsZero() {
		end := p.stopped
		if end.IsZero() || p.inFlight() {
			end = time.Now()
		}
		wall = end.Sub(p.started)
	}
	return Stats{
		Jobs:      p.jobs,
		Completed: p.completed.Value(),
		Failed:    p.failed.Value(),
		Retried:   p.retried.Value(),
		Panicked:  p.panicked.Value(),
		Wall:      wall,
		Busy:      p.busy,
	}
}

// inFlight reports whether submitted tasks have not finished yet.
// Callers hold p.mu.
func (p *Pool) inFlight() bool {
	return p.completed.Value()+p.failed.Value() < p.submitted
}

// admit registers a task about to run.
func (p *Pool) admit() {
	p.mu.Lock()
	if p.started.IsZero() {
		p.started = time.Now()
	}
	p.submitted++
	p.mu.Unlock()
}

// record registers a finished task and fires the progress callback.
func (p *Pool) record(label string, d time.Duration, err error) {
	if err != nil {
		p.failed.Inc()
	} else {
		p.completed.Inc()
	}
	p.mu.Lock()
	p.busy += d
	p.durMean.Observe(d.Seconds())
	p.stopped = time.Now()
	done := p.completed.Value() + p.failed.Value()
	ev := Event{
		Label:     label,
		Err:       err,
		Duration:  d,
		Completed: done,
		Submitted: p.submitted,
	}
	if rem := p.submitted - done; rem > 0 && p.durMean.N() > 0 {
		ev.ETA = time.Duration(float64(rem) * p.durMean.Value() / float64(p.jobs) * float64(time.Second))
	}
	fn := p.progress
	if fn != nil {
		// Invoked under the pool lock so events arrive serialized; the
		// callback must not call back into the pool.
		fn(ev)
	}
	p.mu.Unlock()
}

// Run executes tasks on the pool and returns their results in
// submission order, regardless of completion order. Task panics are
// recovered into *PanicError (with the goroutine stack), so a crashing
// run never takes down the process. What happens after a failure is
// the pool's Policy:
//
//   - FailFast (default): tasks after the failed one are skipped (their
//     in-flight contexts are cancelled), while every task before it
//     still runs; the returned *BatchError carries the earliest
//     submission index's failure (so serial and parallel executions
//     report the same one) plus the skipped-task count and pool
//     statistics.
//   - RunToCompletion: every remaining task still runs; the returned
//     *BatchError lists all failures, and the results slice holds every
//     successful task's result (failed slots keep their zero value).
//
// Tasks marked Transient are retried per SetRetry before their failure
// counts. A cancelled ctx aborts the batch with ctx's error; task
// errors that merely echo that cancellation are not reported as
// failures.
//
// Tasks are fed to workers through a bounded queue, so a batch of
// thousands holds only O(jobs) tasks in flight or buffered at once.
func Run[R any](ctx context.Context, p *Pool, tasks []Task[R]) ([]R, error) {
	results := make([]R, len(tasks))
	if len(tasks) == 0 {
		return results, ctx.Err()
	}
	jobs := p.jobs
	if jobs > len(tasks) {
		jobs = len(tasks)
	}
	policy, retryMax, retryBackoff, faultHook := p.runConfig()

	// halt stops admission: on parent cancellation, or on the first
	// FailFast failure.
	feed, halt := context.WithCancel(ctx)
	defer halt()

	var (
		mu       sync.Mutex
		failures []TaskError
		lowest   = len(tasks)                   // lowest failed index (FailFast)
		running  = map[int]context.CancelFunc{} // in-flight tasks' contexts
		started  int
	)
	// begin starts task i under its own context, or reports that it is
	// skipped. FailFast skips only the tasks after the lowest failed
	// index: every task before it still runs, so the earliest failure is
	// the one a serial execution would hit.
	begin := func(i int) (context.Context, bool) {
		mu.Lock()
		defer mu.Unlock()
		if ctx.Err() != nil || i > lowest {
			return nil, false
		}
		tctx, cancel := context.WithCancel(ctx)
		running[i] = cancel
		started++
		return tctx, true
	}
	end := func(i int) {
		mu.Lock()
		running[i]()
		delete(running, i)
		mu.Unlock()
	}
	// fail records a failure; under FailFast it also cancels the
	// in-flight tasks after index i and stops admission.
	fail := func(i int, label string, err error) {
		mu.Lock()
		defer mu.Unlock()
		failures = append(failures, TaskError{Index: i, Label: label, Err: err})
		if policy != FailFast || i >= lowest {
			return
		}
		lowest = i
		for j, cancel := range running {
			if j > i {
				cancel()
			}
		}
		halt()
	}

	// Feeder: bounded queue sized to the worker count provides
	// backpressure; halting stops admission of queued work. Indices go
	// out in order, so every task before a failed one was already sent.
	queue := make(chan int, jobs)
	go func() {
		defer close(queue)
		for i := range tasks {
			select {
			case queue <- i:
			case <-feed.Done():
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				tctx, ok := begin(i)
				if !ok {
					continue
				}
				t := tasks[i]
				p.admit()
				start := time.Now()
				res, err := attempt(tctx, p, t, retryMax, retryBackoff, faultHook)
				p.record(t.Label, time.Since(start), err)
				// A task aborted by a cancellation (the parent's, or an
				// earlier task's failure) is not a failure: the cause is
				// reported once, at the end.
				cancelled := tctx.Err() != nil && isCancellation(err)
				end(i)
				if err != nil {
					if !cancelled {
						fail(i, t.Label, fmt.Errorf("%s: %w", t.Label, err))
					}
					continue
				}
				results[i] = res
			}
		}()
	}
	wg.Wait()

	skipped := len(tasks) - started
	if err := p.batchErr(failures, skipped); err != nil {
		if policy == RunToCompletion {
			// Partial results survive alongside the failure summary.
			return results, err
		}
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}

// attempt executes one task with panic recovery, the fault-injection
// hook, and bounded retry for Transient tasks. Retry delays follow the
// pool's Backoff; a schedule that exhausts its max-elapsed budget ends
// the retries early with the last failure.
func attempt[R any](ctx context.Context, p *Pool, t Task[R], retryMax int,
	backoff Backoff, hook func(string, int) error) (res R, err error) {
	maxAtt := 0
	if t.Transient {
		maxAtt = retryMax
	}
	var sched *BackoffSchedule
	for att := 0; ; att++ {
		res, err = runOnce(ctx, p, t, att, hook)
		if err == nil || att >= maxAtt || ctx.Err() != nil || isCancellation(err) {
			return res, err
		}
		if sched == nil {
			sched = backoff.Schedule(t.Label)
		}
		d, ok := sched.Next()
		if !ok {
			// Max-elapsed budget spent: surface the failure now.
			return res, err
		}
		if !sleepBackoff(ctx.Done(), d) {
			return res, err
		}
		p.retried.Inc()
	}
}

// runOnce is a single task attempt under a panic guard: a panic in the
// task (or the fault hook) becomes a *PanicError carrying the stack.
func runOnce[R any](ctx context.Context, p *Pool, t Task[R], attempt int,
	hook func(string, int) error) (res R, err error) {
	defer func() {
		if v := recover(); v != nil {
			p.panicked.Inc()
			err = &PanicError{Label: t.Label, Value: v, Stack: debug.Stack()}
		}
	}()
	if hook != nil {
		if herr := hook(t.Label, attempt); herr != nil {
			return res, herr
		}
	}
	return t.Run(ctx)
}
