package campaign

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock is a manually advanced Clock: deadlines fire exactly when
// a test calls Advance, so lease expiry and reconnect pacing are fully
// deterministic (and the package never reads the host clock — the
// simlint wallclock analyzer enforces that, tests included).
type fakeClock struct {
	mu      sync.Mutex
	now     time.Time
	waiters []fakeWaiter
}

type fakeWaiter struct {
	at time.Time
	ch chan time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{now: time.Unix(1000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) After(d time.Duration) <-chan time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	ch := make(chan time.Time, 1)
	at := c.now.Add(d)
	if d <= 0 {
		ch <- c.now
		return ch
	}
	c.waiters = append(c.waiters, fakeWaiter{at: at, ch: ch})
	return ch
}

// Advance moves the clock forward and fires every waiter that came due.
func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	var due []fakeWaiter
	var rest []fakeWaiter
	for _, w := range c.waiters {
		if !w.at.After(c.now) {
			due = append(due, w)
		} else {
			rest = append(rest, w)
		}
	}
	c.waiters = rest
	now := c.now
	c.mu.Unlock()
	for _, w := range due {
		w.ch <- now
	}
}

// echoLocal is a Local executor that tags the config so tests can tell
// local from worker execution apart.
func echoLocal(_ context.Context, label string, cfg []byte) ([]byte, error) {
	return []byte(fmt.Sprintf(`{"ran":"local","label":%q,"cfg":%s}`, label, cfg)), nil
}

// startCoordinator builds a coordinator on a loopback port with test
// heartbeat settings and shuts it down with the test.
func startCoordinator(t *testing.T, clk Clock) *Coordinator {
	t.Helper()
	c, err := NewCoordinator("127.0.0.1:0", CoordinatorOptions{
		Clock:          clk,
		HeartbeatEvery: 100 * time.Millisecond,
		HeartbeatMiss:  time.Second,
		Local:          echoLocal,
		Logf:           testLogf(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// testLogf forwards to t.Logf until the test and its cleanups finish,
// then drops lines: a drained coordinator's connection goroutines may
// still report a worker hanging up after that, and t.Logf panics once
// the test is complete.
func testLogf(t *testing.T) func(format string, args ...any) {
	var mu sync.Mutex
	done := false
	t.Cleanup(func() {
		mu.Lock()
		done = true
		mu.Unlock()
	})
	return func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		if !done {
			t.Logf(format, args...)
		}
	}
}

// TestCampaignLocalFallbackWhenNoWorkers pins graceful degradation:
// with no worker attached, Do executes through the Local function in
// the submitting goroutine.
func TestCampaignLocalFallbackWhenNoWorkers(t *testing.T) {
	c := startCoordinator(t, newFakeClock())
	out, err := c.Do(context.Background(), "t1", []byte(`{"n":1}`))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), `"ran":"local"`) {
		t.Fatalf("result %s did not come from the local executor", out)
	}
	if got := c.Status().Local; got != 1 {
		t.Fatalf("Local counter = %d, want 1", got)
	}
}

// TestCampaignRemoteExecution runs a real worker (campaign.Work over
// loopback TCP) and checks a Do round trip executes on it, plus the
// clean drain path: Close ends the worker session with a nil error.
func TestCampaignRemoteExecution(t *testing.T) {
	clk := newFakeClock()
	c := startCoordinator(t, clk)

	workerDone := make(chan error, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		workerDone <- Work(ctx, WorkerOptions{
			Addr:  c.Addr(),
			Name:  "tw",
			Slots: 2,
			Exec: func(_ context.Context, label string, cfg []byte) ([]byte, error) {
				return []byte(fmt.Sprintf(`{"ran":"worker","label":%q,"cfg":%s}`, label, cfg)), nil
			},
			Clock: clk,
			Logf:  t.Logf,
		})
	}()

	// Wait for the worker to attach so Do cannot race into the local
	// fallback.
	waitFor(t, func() bool { return len(c.Status().Workers) == 1 })

	out, err := c.Do(context.Background(), "r1", []byte(`{"n":2}`))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), `"ran":"worker"`) {
		t.Fatalf("result %s did not come from the worker", out)
	}
	st := c.Status()
	if st.Completed != 1 || st.Local != 0 {
		t.Fatalf("status = %+v, want one worker-completed task", st)
	}
	if st.Workers[0].Name != "tw" || st.Workers[0].Slots != 2 {
		t.Fatalf("worker status = %+v", st.Workers[0])
	}

	c.Close()
	if err := <-workerDone; err != nil {
		t.Fatalf("drained worker returned %v, want nil", err)
	}
}

// TestCampaignWorkerErrorPropagates pins the failure path: an Exec
// error comes back to Do as an error naming the worker.
func TestCampaignWorkerErrorPropagates(t *testing.T) {
	clk := newFakeClock()
	c := startCoordinator(t, clk)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go Work(ctx, WorkerOptions{
		Addr: c.Addr(), Name: "bad", Slots: 1, Clock: clk,
		Exec: func(context.Context, string, []byte) ([]byte, error) {
			return nil, fmt.Errorf("sram exploded")
		},
	})
	waitFor(t, func() bool { return len(c.Status().Workers) == 1 })
	_, err := c.Do(context.Background(), "e1", []byte(`{}`))
	if err == nil || !strings.Contains(err.Error(), "sram exploded") || !strings.Contains(err.Error(), `"bad"`) {
		t.Fatalf("err = %v, want worker-attributed failure", err)
	}
	if got := c.Status().Failed; got != 1 {
		t.Fatalf("Failed counter = %d, want 1", got)
	}
}

// fakeWorker attaches a hand-driven protocol session, for tests that
// need precise control over worker misbehavior.
type fakeWorker struct {
	t  *testing.T
	cn *conn
}

func attachFakeWorker(t *testing.T, c *Coordinator, name string, slots int) *fakeWorker {
	t.Helper()
	nc, err := net.Dial("tcp", c.Addr())
	if err != nil {
		t.Fatal(err)
	}
	w := &fakeWorker{t: t, cn: newConn(nc)}
	if err := w.cn.send(msgHello, helloMsg{Proto: ProtocolVersion, Name: name, Slots: slots}); err != nil {
		t.Fatal(err)
	}
	typ, _, err := w.cn.recv()
	if err != nil || typ != msgWelcome {
		t.Fatalf("welcome: type %d, err %v", typ, err)
	}
	t.Cleanup(func() { w.cn.close() })
	return w
}

// recvTask reads frames until a task arrives.
func (w *fakeWorker) recvTask() taskMsg {
	w.t.Helper()
	for {
		typ, body, err := w.cn.recv()
		if err != nil {
			w.t.Fatalf("recv: %v", err)
		}
		if typ != msgTask {
			continue
		}
		task, err := decode[taskMsg](body)
		if err != nil {
			w.t.Fatal(err)
		}
		return task
	}
}

// waitFor polls cond (driven by the coordinator's own goroutines).
// The pacing uses time.After — deadline *decisions* go through the
// Clock seam, but real cross-goroutine settling needs real waiting.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	for i := 0; i < 5000; i++ {
		if cond() {
			return
		}
		<-time.After(time.Millisecond)
	}
	t.Fatal("condition never became true")
}

// TestFaultCampaignWorkerLossRedispatch pins the lease-revocation
// contract: a worker that dies (connection closed) mid-lease loses the
// task, which is re-dispatched — here to the local fallback, since no
// other worker is attached — and completes exactly once.
func TestFaultCampaignWorkerLossRedispatch(t *testing.T) {
	c := startCoordinator(t, newFakeClock())
	w := attachFakeWorker(t, c, "doomed", 1)

	done := make(chan struct{})
	var out []byte
	var doErr error
	go func() {
		out, doErr = c.Do(context.Background(), "redis", []byte(`{"n":3}`))
		close(done)
	}()
	task := w.recvTask()
	if task.Label != "redis" {
		t.Fatalf("leased label %q", task.Label)
	}
	// The worker dies holding the lease.
	w.cn.close()
	<-done
	if doErr != nil {
		t.Fatal(doErr)
	}
	if !strings.Contains(string(out), `"ran":"local"`) {
		t.Fatalf("re-dispatched result %s did not come from the fallback", out)
	}
	st := c.Status()
	if st.Redispatched != 1 || st.WorkersLost != 1 {
		t.Fatalf("status = %+v, want 1 redispatch and 1 lost worker", st)
	}
}

// TestFaultCampaignHeartbeatExpiryRevokes pins deadline-based loss
// detection: a wedged worker — socket open, heartbeats stopped — is
// declared lost once the injected clock passes the miss deadline, and
// its lease is re-dispatched.
func TestFaultCampaignHeartbeatExpiryRevokes(t *testing.T) {
	clk := newFakeClock()
	c := startCoordinator(t, clk)
	w := attachFakeWorker(t, c, "wedged", 1)

	done := make(chan struct{})
	var out []byte
	var doErr error
	go func() {
		out, doErr = c.Do(context.Background(), "wedge", []byte(`{"n":4}`))
		close(done)
	}()
	w.recvTask() // hold the lease, never heartbeat, never answer
	clk.Advance(2 * time.Second)
	<-done
	if doErr != nil {
		t.Fatal(doErr)
	}
	if !strings.Contains(string(out), `"ran":"local"`) {
		t.Fatalf("result %s did not come from re-dispatch", out)
	}
	st := c.Status()
	if st.WorkersLost != 1 || st.Redispatched != 1 {
		t.Fatalf("status = %+v, want wedged worker reaped", st)
	}
}

// TestFaultCampaignDuplicateResultDropped pins exactly-once delivery:
// a result for a revoked lease (and a result for a lease the sender
// never held) is counted and discarded, never delivered.
func TestFaultCampaignDuplicateResultDropped(t *testing.T) {
	clk := newFakeClock()
	c := startCoordinator(t, clk)
	w := attachFakeWorker(t, c, "late", 1)

	done := make(chan struct{})
	var out []byte
	go func() {
		out, _ = c.Do(context.Background(), "dup", []byte(`{"n":5}`))
		close(done)
	}()
	task := w.recvTask()
	// The worker wedges; the deadline revokes its lease and the run
	// completes locally.
	clk.Advance(2 * time.Second)
	<-done
	if !strings.Contains(string(out), `"ran":"local"`) {
		t.Fatalf("result %s did not come from re-dispatch", out)
	}
	// The wedged worker finally answers its revoked lease: the stale
	// result must be dropped (its connection is already closed, so the
	// send itself may fail — either way the counters are the proof).
	w.cn.send(msgResult, resultMsg{Lease: task.Lease, Label: task.Label, Result: []byte(`{"ran":"stale"}`)})

	w2 := attachFakeWorker(t, c, "timely", 1)
	done2 := make(chan struct{})
	go func() {
		c.Do(context.Background(), "dup2", []byte(`{"n":6}`))
		close(done2)
	}()
	task2 := w2.recvTask()
	// A bogus-lease result is a duplicate; the real one still lands.
	w2.cn.send(msgResult, resultMsg{Lease: 9999, Result: []byte(`{}`)})
	w2.cn.send(msgResult, resultMsg{Lease: task2.Lease, Result: []byte(`{"ok":true}`)})
	<-done2
	if got := c.Status().Duplicates; got < 1 {
		t.Fatalf("Duplicates = %d, want >= 1", got)
	}
}

// TestCampaignRejectsBadHello pins attach-time validation: wrong
// protocol generation and zero slots are both turned away.
func TestCampaignRejectsBadHello(t *testing.T) {
	c := startCoordinator(t, newFakeClock())
	for _, hello := range []helloMsg{
		{Proto: ProtocolVersion + 1, Name: "future", Slots: 1},
		{Proto: ProtocolVersion, Name: "zero", Slots: 0},
	} {
		nc, err := net.Dial("tcp", c.Addr())
		if err != nil {
			t.Fatal(err)
		}
		cn := newConn(nc)
		if err := cn.send(msgHello, hello); err != nil {
			t.Fatal(err)
		}
		if _, _, err := cn.recv(); err == nil {
			t.Fatalf("hello %+v was accepted", hello)
		}
		cn.close()
	}
	if got := len(c.Status().Workers); got != 0 {
		t.Fatalf("%d workers attached, want 0", got)
	}
}

// TestCampaignStatusEndpoint drives the HTTP surface: /progress
// reports counters and per-worker health, /metrics serves the
// campaign registry, /healthz flips to 503 after shutdown.
func TestCampaignStatusEndpoint(t *testing.T) {
	clk := newFakeClock()
	c := startCoordinator(t, clk)
	w := attachFakeWorker(t, c, "web", 3)
	waitFor(t, func() bool { return len(c.Status().Workers) == 1 })
	done := make(chan struct{})
	go func() {
		c.Do(context.Background(), "h1", []byte(`{}`))
		close(done)
	}()
	task := w.recvTask()
	w.cn.send(msgResult, resultMsg{Lease: task.Lease, Label: task.Label, Result: []byte(`{}`)})
	<-done

	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	get := func(path string) (int, string) {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp.StatusCode, sb.String()
	}

	code, body := get("/progress")
	if code != 200 {
		t.Fatalf("/progress: %d", code)
	}
	var st Status
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("/progress not JSON: %v", err)
	}
	if st.Submitted != 1 || len(st.Workers) != 1 || st.Workers[0].Name != "web" {
		t.Fatalf("/progress = %+v", st)
	}

	code, body = get("/metrics")
	if code != 200 || !strings.Contains(body, "campaign.tasks_submitted") {
		t.Fatalf("/metrics: %d %q", code, body)
	}

	if code, _ := get("/healthz"); code != 200 {
		t.Fatalf("/healthz live: %d", code)
	}
	c.Close()
	if code, _ := get("/healthz"); code != 503 {
		t.Fatalf("/healthz after shutdown: %d", code)
	}
}

// TestCampaignDoAfterCloseFails pins shutdown semantics: Do on a
// closed coordinator fails fast instead of hanging.
func TestCampaignDoAfterCloseFails(t *testing.T) {
	c := startCoordinator(t, newFakeClock())
	c.Close()
	if _, err := c.Do(context.Background(), "x", nil); err == nil {
		t.Fatal("Do after Close succeeded")
	}
}
