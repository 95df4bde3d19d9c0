// Package campaign mirrors the coordinator's critical sections: a held
// mutex must never reach a channel operation or a blocking call, and
// every return under a lock needs a deferred unlock behind it.
package campaign

import (
	"io"
	"sync"

	"ropsim/internal/campaign/dep"
)

// state is the shared structure the fixtures lock.
type state struct {
	mu      sync.Mutex
	rw      sync.RWMutex
	cond    *sync.Cond
	pending []int
}

// badSend sends on a channel inside the critical section.
func (s *state) badSend(ch chan int, v int) {
	s.mu.Lock()
	s.pending = append(s.pending, v)
	ch <- v // want `channel send while s.mu is held`
	s.mu.Unlock()
}

// badRecv parks the critical section on a receive.
func (s *state) badRecv(ch chan int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return <-ch // want `channel receive while s.mu is held`
}

// badSelect can park the critical section in a select.
func (s *state) badSelect(a, b chan int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	select { // want `select without default while s.mu is held`
	case v := <-a:
		return v
	case v := <-b:
		return v
	}
}

// badBlockingCall reaches socket I/O through a cross-package callee:
// only dep.Flush's fact says it blocks.
func (s *state) badBlockingCall(w io.Writer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	dep.Flush(w, s.pending) // want `call to Flush may block \(io\) while s.mu is held`
}

// badReturnHeld leaks the lock on the early return path.
func (s *state) badReturnHeld(v int) bool {
	s.mu.Lock()
	if v < 0 {
		return false // want `return while s.mu is held with no deferred unlock`
	}
	s.pending = append(s.pending, v)
	s.mu.Unlock()
	return true
}

// goodDefer is the sanctioned shape: deferred unlock, no blocking
// inside.
func (s *state) goodDefer(v int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pending = append(s.pending, v)
	return len(s.pending)
}

// goodEarlyUnlock releases on every branch before the blocking
// operation — the singleflight idiom.
func (s *state) goodEarlyUnlock(ch chan int, compute bool) int {
	s.mu.Lock()
	if compute {
		s.mu.Unlock()
		return <-ch
	}
	s.mu.Unlock()
	return <-ch
}

// goodSendAfterUnlock moves the send out of the critical section.
func (s *state) goodSendAfterUnlock(ch chan int, v int) {
	s.mu.Lock()
	s.pending = append(s.pending, v)
	s.mu.Unlock()
	ch <- v
}

// goodCondWait may wait on the condition variable: Cond.Wait requires
// the held lock and releases it while parked.
func (s *state) goodCondWait() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.pending) == 0 {
		s.cond.Wait()
	}
	return s.pending[0]
}

// goodRWRead takes the read lock around pure reads.
func (s *state) goodRWRead() int {
	s.rw.RLock()
	defer s.rw.RUnlock()
	return len(s.pending)
}

// goodSelectDefault never parks: the default case makes the select
// non-blocking.
func (s *state) goodSelectDefault(ch chan int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case v := <-ch:
		return v
	default:
		return 0
	}
}

// justified documents a lock whose job is serializing the blocking
// operation itself.
func (s *state) justified(w io.Writer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	//simlint:locksafe "this mutex exists to serialize whole-batch flushes; the blocking write is the critical section"
	dep.Flush(w, s.pending)
}

// unjustified must both fail to suppress and be reported itself.
func (s *state) unjustified(ch chan int, v int) {
	s.mu.Lock()
	//simlint:locksafe // want `requires a non-empty quoted justification`
	ch <- v // want `channel send while s.mu is held`
	s.mu.Unlock()
}
