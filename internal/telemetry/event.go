package telemetry

import (
	"sync"
	"sync/atomic"
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
	// EvFieldHit: olr_getptr resolved on its strategy's fast path (an
	// offset-cache hit or a stateless derivation; Resolution.Hit).
	EvFieldHit
	// EvFieldMiss: olr_getptr resolved any other way (a metadata probe
	// or the static arm).
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

// Resolution says how an olr_getptr call found its offset. It is the
// one mapping every observer of a getptr event reads: the bus kind
// (Hit), the probe-length bucket (ProbeLen) and whether the fast path
// missed, which the hot-site profiler counts as a probe (!Hit).
type Resolution uint8

const (
	// ResCacheHit: the per-runtime offset cache had (class, layout, field).
	ResCacheHit Resolution = 1
	// ResMetadata: the slow path consulted the MetaStore layout record.
	ResMetadata Resolution = 2
	// ResStatic: no per-allocation metadata applied (unknown class,
	// untracked address, or confused member index) — the static or base
	// offset was returned.
	ResStatic Resolution = 3
	// ResStateless: the offset was recomputed from the keyed hash of the
	// base address (SPAM-style stateless mode) — no metadata probe at all.
	ResStateless Resolution = 4
)

// String implements fmt.Stringer.
func (r Resolution) String() string {
	switch r {
	case ResCacheHit:
		return "cache-hit"
	case ResMetadata:
		return "metadata"
	case ResStatic:
		return "static"
	case ResStateless:
		return "stateless"
	default:
		return "?"
	}
}

// Hit reports whether the resolution took its strategy's fast path:
// an offset-cache hit or a stateless derivation. Getptr events are
// EvFieldHit exactly when it holds.
func (r Resolution) Hit() bool { return r == ResCacheHit || r == ResStateless }

// ProbeLen is the resolution's probe-length bucket (ProbeLenBuckets).
func (r Resolution) ProbeLen() float64 {
	switch r {
	case ResStateless:
		return 0
	case ResCacheHit:
		return 1
	case ResMetadata:
		return 2
	default:
		return 3
	}
}

// Event is one observation. Fields are a union over kinds; unused
// fields are zero. No pointers — an Event never retains program state.
type Event struct {
	Kind EventKind `json:"kind"`
	// Res and Off are a getptr's resolution and its resolved offset from
	// Addr. The execution trace records them; JSON renderings of the
	// event (flight dumps) leave them out. They sit beside Kind, in
	// what would be padding, so carrying them costs no copying.
	Res Resolution `json:"-"`
	Off int32      `json:"-"`
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
// hot paths should guard with a nil check on the bus (or the owning
// *Telemetry) so the Event is never constructed when nothing observes
// the run — that is the "one branch" cost contract benchmarked in
// BenchmarkTelemetryOverhead.
type Bus struct {
	mu sync.Mutex // serializes subscriptions
	// sinks is replaced, never modified, by a subscription, so Emit
	// reads it without taking mu.
	sinks atomic.Pointer[[]Sink]
}

// NewBus returns a bus over the given sinks.
func NewBus(sinks ...Sink) *Bus {
	b := &Bus{}
	for _, s := range sinks {
		b.Attach(s)
	}
	return b
}

// Attach subscribes an additional sink.
func (b *Bus) Attach(s Sink) {
	if s != nil {
		b.attach(s, false)
	}
}

// AttachOnce subscribes s unless an equal sink is already attached,
// so a runtime may attach its observers to a bus every run shares. s
// must be comparable (a pointer, or a struct of pointers).
func (b *Bus) AttachOnce(s Sink) { b.attach(s, true) }

func (b *Bus) attach(s Sink, once bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	var sinks []Sink
	if p := b.sinks.Load(); p != nil {
		sinks = *p
	}
	if once {
		for _, have := range sinks {
			if have == s {
				return
			}
		}
	}
	sinks = append(sinks[:len(sinks):len(sinks)], s)
	b.sinks.Store(&sinks)
}

// Emit delivers e to every sink. Safe on a nil bus.
func (b *Bus) Emit(e Event) {
	if b == nil {
		return
	}
	if p := b.sinks.Load(); p != nil {
		for _, s := range *p {
			s.Event(e)
		}
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

// probeLenSink observes each getptr event's probe-length bucket.
type probeLenSink struct{ h *Histogram }

// ProbeLenSink returns the sink that feeds reg's probe-length histogram
// (MetricCacheProbeLen) from getptr events. Sinks for one registry are
// equal, so Bus.AttachOnce attaches it once per bus.
func ProbeLenSink(reg *Registry) Sink {
	return probeLenSink{reg.Histogram(MetricCacheProbeLen, ProbeLenBuckets)}
}

// Event implements Sink.
func (s probeLenSink) Event(e Event) {
	if e.Kind == EvFieldHit || e.Kind == EvFieldMiss {
		s.h.Observe(e.Res.ProbeLen())
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
