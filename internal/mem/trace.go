package mem

// EventKind identifies the kind of a traced memory access.
type EventKind uint8

// Trace event kinds.
const (
	EvAlloc EventKind = iota
	EvLoad
	EvStore
	EvCAS
	EvRetire
	EvReclaim
	// EvNote is a marker event injected by instrumentation (for example a
	// phase boundary for the access-aware verifier).
	EvNote
)

// String returns the event kind name.
func (k EventKind) String() string {
	switch k {
	case EvAlloc:
		return "alloc"
	case EvLoad:
		return "load"
	case EvStore:
		return "store"
	case EvCAS:
		return "cas"
	case EvRetire:
		return "retire"
	case EvReclaim:
		return "reclaim"
	case EvNote:
		return "note"
	}
	return "?"
}

// TraceEvent is one recorded memory access. The access-aware verifier
// (Appendix C/D of the paper) consumes per-thread event streams to check
// the read-phase/write-phase discipline.
type TraceEvent struct {
	Kind   EventKind
	Slot   int
	Word   int
	Value  uint64
	Ref    Ref
	Unsafe bool
	// Phase annotations are attached by the data structure through
	// Tracer.Annotate; zero means "no annotation".
	Note string
}

// Tracer records per-thread access streams. Each thread appends to its own
// slice, so recording needs no synchronization as long as a thread id is
// driven by a single goroutine at a time (which the harness guarantees).
type Tracer struct {
	// Streams holds thread tid's recorded stream at index tid. The slices
	// are owned by the tracer; readers must not mutate them.
	Streams [][]TraceEvent
}

// NewTracer builds a tracer for n threads.
func NewTracer(n int) *Tracer {
	return &Tracer{Streams: make([][]TraceEvent, n)}
}

func (t *Tracer) record(tid int, ev TraceEvent) {
	t.Streams[tid] = append(t.Streams[tid], ev)
}

// Annotate appends a marker event (for example a phase boundary) to thread
// tid's stream.
func (t *Tracer) Annotate(tid int, note string) {
	t.Streams[tid] = append(t.Streams[tid], TraceEvent{Kind: EvNote, Slot: -1, Note: note})
}

// Reset clears all recorded streams.
func (t *Tracer) Reset() {
	for i := range t.Streams {
		t.Streams[i] = t.Streams[i][:0]
	}
}
