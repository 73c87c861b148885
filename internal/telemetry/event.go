package telemetry

import (
	"sync"
)

// EventKind enumerates the typed events the stack emits.
type EventKind uint8

// Event kinds. The taxonomy follows the runtime operations the paper's
// evaluation accounts for (Table III, §V.B, §V.C) plus the analysis
// front end.
const (
	// EvAlloc: an object was allocated (VM raw allocs and olr_malloc).
	EvAlloc EventKind = iota + 1
	// EvFree: an object was freed.
	EvFree
	// EvFieldHit: olr_getptr resolved through the offset cache.
	EvFieldHit
	// EvFieldMiss: olr_getptr took the metadata slow path.
	EvFieldMiss
	// EvMemcpyRerand: olr_memcpy gave a duplicate a fresh layout (§IV.A.2).
	EvMemcpyRerand
	// EvLayoutGen: a randomized layout was generated.
	EvLayoutGen
	// EvViolation: the runtime detected an attack symptom.
	EvViolation
	// EvTaintUnion: tainted bytes landed in a tracked object. Nothing
	// emits it; it keeps its place because flight dumps number event
	// kinds by position.
	EvTaintUnion
	// EvCorpusAdd: the fuzzer kept an input that found new coverage.
	EvCorpusAdd
	// EvFuelCheckpoint: a VM run boundary; Size carries the remaining
	// fuel, Detail distinguishes "run-start" from "run-end". The flight
	// recorder uses these to delimit call windows in forensic dumps.
	EvFuelCheckpoint

	// maxEventKind is the highest defined kind; keep it in sync when
	// adding kinds above.
	maxEventKind = EvFuelCheckpoint
)

// AllEventKinds returns every defined kind in declaration order. New
// kinds are picked up automatically by callers that enumerate (the
// counting sink, the events endpoint's name table).
func AllEventKinds() []EventKind {
	kinds := make([]EventKind, 0, int(maxEventKind))
	for k := EvAlloc; k <= maxEventKind; k++ {
		kinds = append(kinds, k)
	}
	return kinds
}

// String implements fmt.Stringer; the names double as the counter
// suffixes CountingSink uses ("event.<kind>").
func (k EventKind) String() string {
	switch k {
	case EvAlloc:
		return "alloc"
	case EvFree:
		return "free"
	case EvFieldHit:
		return "fieldptr-hit"
	case EvFieldMiss:
		return "fieldptr-miss"
	case EvMemcpyRerand:
		return "memcpy-rerand"
	case EvLayoutGen:
		return "layout-gen"
	case EvViolation:
		return "violation"
	case EvTaintUnion:
		return "taint-union"
	case EvCorpusAdd:
		return "corpus-add"
	case EvFuelCheckpoint:
		return "fuel-checkpoint"
	default:
		return "?"
	}
}

// Event is one observation. Fields are a union over kinds; unused
// fields are zero. No pointers — an Event never retains program state.
type Event struct {
	Kind EventKind `json:"kind"`
	// Addr is the object base (alloc/free/violation) or the written
	// address (taint-union).
	Addr uint64 `json:"addr,omitempty"`
	// Size in bytes: allocation size, copy length, input length.
	Size int `json:"size,omitempty"`
	// Class is the CIE class hash involved.
	Class uint64 `json:"class,omitempty"`
	// Layout is the layout identity hash (dedup key).
	Layout uint64 `json:"layout,omitempty"`
	// Field is the member index (fieldptr events; -1 when n/a).
	Field int `json:"field,omitempty"`
	// Label is the taint label bitmask (taint-union).
	Label uint64 `json:"label,omitempty"`
	// Site is the instruction site "@fn.block" that triggered the event,
	// when known.
	Site string `json:"site,omitempty"`
	// Detail is a kind-specific tag: the violation kind name, the class
	// name for VM-level allocs, "seed"/"mutant" for corpus adds.
	Detail string `json:"detail,omitempty"`
}

// Sink consumes events. Implementations must be safe for concurrent
// use when the Telemetry is shared across VMs.
type Sink interface {
	Event(e Event)
}

// Bus fans events out to its sinks. A nil *Bus is a valid no-op, but
// hot paths should guard with a nil check on the owning *Telemetry so
// the Event is never constructed when telemetry is disabled — that is
// the "one branch" cost contract benchmarked in BenchmarkTelemetryOverhead.
type Bus struct {
	mu    sync.Mutex
	sinks []Sink
}

// NewBus returns a bus over the given sinks.
func NewBus(sinks ...Sink) *Bus {
	b := &Bus{}
	for _, s := range sinks {
		if s != nil {
			b.sinks = append(b.sinks, s)
		}
	}
	return b
}

// Attach subscribes an additional sink.
func (b *Bus) Attach(s Sink) {
	if s == nil {
		return
	}
	b.mu.Lock()
	b.sinks = append(b.sinks, s)
	b.mu.Unlock()
}

// Detach unsubscribes a sink previously passed to Attach (identity
// comparison). Transient subscribers — the live event-stream endpoint
// attaches one sink per HTTP client — must detach on disconnect or the
// bus would deliver into dead streams forever. The sink list is
// copy-on-write so a concurrent Emit keeps its own snapshot.
func (b *Bus) Detach(s Sink) {
	if b == nil || s == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for i, have := range b.sinks {
		if have == s {
			b.sinks = append(append([]Sink(nil), b.sinks[:i]...), b.sinks[i+1:]...)
			return
		}
	}
}

// Emit delivers e to every sink. Safe on a nil bus.
func (b *Bus) Emit(e Event) {
	if b == nil {
		return
	}
	b.mu.Lock()
	sinks := b.sinks
	b.mu.Unlock()
	for _, s := range sinks {
		s.Event(e)
	}
}

// FuncSink adapts a function to the Sink interface.
type FuncSink func(Event)

// Event implements Sink.
func (f FuncSink) Event(e Event) { f(e) }

// countingSink tallies events by kind into a registry.
type countingSink struct {
	reg *Registry
	// counters caches the per-kind counter pointers so steady-state
	// counting takes no map lookups or locks.
	counters [maxEventKind + 1]*Counter
}

// CountingSink returns a sink that increments reg's "event.<kind>"
// counter for every event.
func CountingSink(reg *Registry) Sink {
	s := &countingSink{reg: reg}
	for _, k := range AllEventKinds() {
		s.counters[k] = reg.Counter("event." + k.String())
	}
	return s
}

// Event implements Sink.
func (s *countingSink) Event(e Event) {
	if int(e.Kind) < len(s.counters) && s.counters[e.Kind] != nil {
		s.counters[e.Kind].Inc()
	}
}

// Recorder retains events for inspection (tests, violation forensics).
// Retention is capped; Dropped counts what fell off the end.
type Recorder struct {
	mu      sync.Mutex
	cap     int
	events  []Event
	dropped int
}

// NewRecorder returns a recorder keeping at most cap events (0 means
// a generous default of 4096).
func NewRecorder(cap int) *Recorder {
	if cap <= 0 {
		cap = 4096
	}
	return &Recorder{cap: cap}
}

// Event implements Sink.
func (r *Recorder) Event(e Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.events) >= r.cap {
		r.dropped++
		return
	}
	r.events = append(r.events, e)
}

// Events returns a copy of the retained events.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.events...)
}

// ByKind returns the retained events of one kind.
func (r *Recorder) ByKind(k EventKind) []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Event
	for _, e := range r.events {
		if e.Kind == k {
			out = append(out, e)
		}
	}
	return out
}

// Dropped reports how many events exceeded the retention cap.
func (r *Recorder) Dropped() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}
