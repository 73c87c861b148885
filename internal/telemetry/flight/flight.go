// Package flight implements the security flight recorder: a fixed-size
// ring buffer of recent runtime events that can be snapshotted into a
// deterministic forensic dump when the POLaR runtime detects a
// violation (or on demand at end of run).
//
// The paper's evaluation counts detections; an operator responding to
// one needs the story — which object was hit, what its allocation and
// layout-generation history was, what sat next to it on the heap, and
// what the program was doing in the moments before. Heelan et al.
// (arXiv 1804.08470) frame heap exploitation as a search problem, so
// the interesting defender-side signal is a *sequence* of events, not
// a counter tick; the ring buffer preserves exactly that sequence.
//
// Design rules follow the telemetry package: standard library only,
// deterministic output under fixed seeds (events carry sequence
// numbers, never wall-clock timestamps), and cost proportional to
// events only when attached — an unattached recorder costs nothing.
package flight

import (
	"encoding/json"
	"sync"

	"polar/internal/telemetry"
)

// Default capacities. The ring is deliberately small: forensics wants
// the recent window, not the full history (that is what the execution
// trace and the tracer are for).
const (
	DefaultRingCap = 256
	maxDumps       = 16
)

// RecordedEvent is one bus event plus its global sequence number (the
// recorder's own monotonic count, which substitutes for a timestamp so
// dumps stay byte-identical across runs with the same seed).
type RecordedEvent struct {
	Seq uint64 `json:"seq"`
	telemetry.Event
}

// Violation mirrors the runtime's structured violation record. The
// flight recorder defines its own type so the core runtime can depend
// on this package without a cycle.
type Violation struct {
	Kind      string `json:"kind"`
	Addr      uint64 `json:"addr"`
	Class     string `json:"class"`
	ClassHash uint64 `json:"class_hash"`
	LayoutID  uint64 `json:"layout_id"`
	Field     int    `json:"field"`
	Site      string `json:"site,omitempty"`
}

// Neighbor is one address-adjacent heap chunk in the victim's
// neighborhood, annotated with object metadata when the runtime tracks
// the chunk.
type Neighbor struct {
	Base     uint64 `json:"base"`
	Size     int    `json:"size"`
	Live     bool   `json:"live"`
	Class    string `json:"class,omitempty"`
	LayoutID uint64 `json:"layout_id,omitempty"`
	Freed    bool   `json:"freed,omitempty"`
	// Victim marks the chunk the violation hit.
	Victim bool `json:"victim,omitempty"`
}

// Dump is one forensic snapshot: the offending access, the victim's
// event timeline, its heap neighborhood, and the trailing event window
// that led up to the detection.
type Dump struct {
	// Reason is "violation" or "end-of-run".
	Reason string `json:"reason"`
	// Violation is the offending access (nil for end-of-run dumps).
	Violation *Violation `json:"violation,omitempty"`
	// VictimBase is the base address of the object the violation hit
	// (0 when unknown).
	VictimBase uint64 `json:"victim_base,omitempty"`
	// VictimTimeline is the subset of the window involving the victim:
	// its allocations, layout generations, member resolutions, frees and
	// violations, in sequence order.
	VictimTimeline []RecordedEvent `json:"victim_timeline,omitempty"`
	// Neighborhood lists address-adjacent chunks around the victim.
	Neighborhood []Neighbor `json:"neighborhood,omitempty"`
	// Window is the full retained event window, oldest first.
	Window []RecordedEvent `json:"window"`
	// EventsSeen counts every event the recorder observed up to the
	// capture; EventsDropped says how many had already fallen off the
	// ring (window completeness indicator).
	EventsSeen    uint64 `json:"events_seen"`
	EventsDropped uint64 `json:"events_dropped"`
}

// Recorder is the per-VM flight recorder. It implements telemetry.Sink;
// attach it to the bus (AttachOnce) and hand it to the runtime so the
// violation path can capture dumps. Safe for concurrent use.
type Recorder struct {
	mu       sync.Mutex
	cap      int
	ring     []RecordedEvent // grows to cap, then wraps
	next     int             // write index once len(ring) == cap
	seq      uint64          // events seen
	dumps    []*Dump
	dropped  int // dumps beyond maxDumps
	attached bool
}

// NewRecorder returns a recorder retaining the last cap events
// (<= 0 means DefaultRingCap).
func NewRecorder(cap int) *Recorder {
	if cap <= 0 {
		cap = DefaultRingCap
	}
	return &Recorder{cap: cap, ring: make([]RecordedEvent, 0, cap)}
}

// AttachOnce subscribes the recorder to the bus exactly once; repeated
// calls (one per run when a recorder outlives a Prepared program's
// runs) are no-ops.
func (r *Recorder) AttachOnce(bus *telemetry.Bus) {
	if bus == nil {
		return
	}
	r.mu.Lock()
	already := r.attached
	r.attached = true
	r.mu.Unlock()
	if !already {
		bus.Attach(r)
	}
}

// Event implements telemetry.Sink.
func (r *Recorder) Event(e telemetry.Event) {
	r.mu.Lock()
	r.seq++
	re := RecordedEvent{Seq: r.seq, Event: e}
	if len(r.ring) < r.cap {
		r.ring = append(r.ring, re)
	} else {
		r.ring[r.next] = re
		r.next = (r.next + 1) % r.cap
	}
	r.mu.Unlock()
}

// window returns the retained events oldest-first. Caller holds r.mu.
func (r *Recorder) window() []RecordedEvent {
	if len(r.ring) < r.cap {
		return append([]RecordedEvent(nil), r.ring...)
	}
	out := make([]RecordedEvent, 0, r.cap)
	out = append(out, r.ring[r.next:]...)
	out = append(out, r.ring[:r.next]...)
	return out
}

// EventsSeen returns the total number of events observed.
func (r *Recorder) EventsSeen() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}

// Window returns a copy of the retained events, oldest first.
func (r *Recorder) Window() []RecordedEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.window()
}

// Publish snapshots the recorder's loss/occupancy state into a metrics
// registry, for the OpenMetrics exposition: "flight.dropped" counts
// events that have fallen off the ring (total seen minus retained),
// "flight.dumps_dropped" counts forensic dumps discarded past the dump
// cap, and the "flight.ring_occupancy" gauge is the retained fraction
// of capacity (1.0 = full window).
func (r *Recorder) Publish(reg *telemetry.Registry) {
	if r == nil || reg == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	reg.Counter("flight.dropped").Set(r.seq - uint64(len(r.ring)))
	reg.Counter("flight.dumps_dropped").Set(uint64(r.dropped))
	reg.Gauge("flight.ring_occupancy").Set(float64(len(r.ring)) / float64(r.cap))
}

// victimTimeline extracts the events involving the victim object from
// the window: events addressed at its base, plus layout-generation
// events for any layout those events carry (layout generation precedes
// allocation and has no address yet).
func victimTimeline(window []RecordedEvent, base uint64) []RecordedEvent {
	if base == 0 {
		return nil
	}
	layouts := make(map[uint64]bool)
	for _, re := range window {
		if re.Addr == base && re.Layout != 0 {
			layouts[re.Layout] = true
		}
	}
	var out []RecordedEvent
	for _, re := range window {
		switch {
		case re.Addr == base:
			out = append(out, re)
		case re.Kind == telemetry.EvLayoutGen && layouts[re.Layout]:
			out = append(out, re)
		}
	}
	return out
}

// CaptureViolation snapshots the ring into a forensic dump for one
// detected violation. victimBase is the base address of the object hit
// (0 if unknown); neighbors is its heap neighborhood, as resolved by
// the runtime. The dump is retained (up to maxDumps) and returned.
func (r *Recorder) CaptureViolation(v Violation, victimBase uint64, neighbors []Neighbor) *Dump {
	r.mu.Lock()
	defer r.mu.Unlock()
	window := r.window()
	d := &Dump{
		Reason:         "violation",
		Violation:      &v,
		VictimBase:     victimBase,
		VictimTimeline: victimTimeline(window, victimBase),
		Neighborhood:   neighbors,
		Window:         window,
		EventsSeen:     r.seq,
		EventsDropped:  r.seq - uint64(len(window)),
	}
	r.keep(d)
	return d
}

// CaptureFinal snapshots the current window without a violation — the
// end-of-run dump for scenarios that evade runtime detection (the
// paper's honest negative results: an info leak through untracked
// loads touches no booby trap and consults no metadata, so no
// violation ever fires, yet the event window still tells the story).
func (r *Recorder) CaptureFinal() *Dump {
	r.mu.Lock()
	defer r.mu.Unlock()
	window := r.window()
	d := &Dump{
		Reason:        "end-of-run",
		Window:        window,
		EventsSeen:    r.seq,
		EventsDropped: r.seq - uint64(len(window)),
	}
	r.keep(d)
	return d
}

// keep retains d up to maxDumps. Caller holds r.mu.
func (r *Recorder) keep(d *Dump) {
	if len(r.dumps) < maxDumps {
		r.dumps = append(r.dumps, d)
	} else {
		r.dropped++
	}
}

// Dumps returns the retained dumps in capture order.
func (r *Recorder) Dumps() []*Dump {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*Dump(nil), r.dumps...)
}

// DroppedDumps reports how many captures exceeded the retention cap.
func (r *Recorder) DroppedDumps() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Reset clears the ring and the retained dumps (the attachment state is
// kept — the recorder stays subscribed to its bus).
func (r *Recorder) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ring = r.ring[:0]
	r.next = 0
	r.seq = 0
	r.dumps = nil
	r.dropped = 0
}

// Report is the serialized form of a recorder's retained dumps.
type Report struct {
	Schema       string  `json:"schema"`
	Dumps        []*Dump `json:"dumps"`
	DumpsDropped int     `json:"dumps_dropped"`
}

// SchemaVersion identifies the dump format for external consumers.
const SchemaVersion = "polar-flight-dump/v1"

// Encode renders every retained dump as deterministic indented JSON:
// field order is fixed by the struct definitions and all identifiers
// are seeds-and-sequence derived, so two runs with the same seed
// produce byte-identical output.
func (r *Recorder) Encode() ([]byte, error) {
	r.mu.Lock()
	rep := Report{Schema: SchemaVersion, Dumps: append([]*Dump(nil), r.dumps...), DumpsDropped: r.dropped}
	r.mu.Unlock()
	if rep.Dumps == nil {
		rep.Dumps = []*Dump{}
	}
	return json.MarshalIndent(rep, "", "  ")
}
