// Package workload models the paper's benchmark suite. SPEC CPU2006
// binaries (run under Zsim+Pin in the paper) are not available offline,
// so each benchmark is modeled as a parameterized, deterministic trace
// generator whose memory-controller-visible behaviour — intensity,
// working-set size, row/bank locality, multi-delta stride structure, and
// arrival burstiness — reproduces the published characteristics the ROP
// mechanism depends on (see DESIGN.md §1).
//
// A trace is a stream of Records at the LLC-access level: the core front
// end (internal/cpu) replays it against a simulated LLC, and the misses
// form the memory-controller request stream.
package workload

// Record is one memory operation in a trace.
type Record struct {
	// Gap is the number of non-memory instructions executed since the
	// previous memory operation.
	Gap uint32
	// Line is the cache-line index in the benchmark's address space.
	Line uint64
	// Write marks store operations; everything else is a load.
	Write bool
}

// Stream produces trace records. Implementations must be deterministic
// for a fixed construction seed.
type Stream interface {
	// Next returns the next record. ok is false when the stream is
	// exhausted (generators are typically infinite).
	Next() (r Record, ok bool)
}

// SliceStream replays a fixed record slice.
type SliceStream struct {
	recs []Record
	pos  int
}

// NewSliceStream builds a stream over recs (not copied).
func NewSliceStream(recs []Record) *SliceStream {
	return &SliceStream{recs: recs}
}

// Next implements Stream.
func (s *SliceStream) Next() (Record, bool) {
	if s.pos >= len(s.recs) {
		return Record{}, false
	}
	r := s.recs[s.pos]
	s.pos++
	return r, true
}

// Reset rewinds the stream to the beginning.
func (s *SliceStream) Reset() { s.pos = 0 }

// Take materializes up to n records from a stream.
func Take(s Stream, n int) []Record {
	out := make([]Record, 0, n)
	for len(out) < n {
		r, ok := s.Next()
		if !ok {
			break
		}
		out = append(out, r)
	}
	return out
}
