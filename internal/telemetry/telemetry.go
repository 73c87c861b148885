// Package telemetry is the unified observability layer of the POLaR
// reproduction: a typed event bus, a metrics registry and a span
// tracer, threaded through the VM, the POLaR runtime, the heap, the
// taint engine, the fuzzer and the instrumentation pass.
//
// The paper's whole evaluation (Table III cache-hit counts, the Fig. 6
// overhead shape, the §V.C violation rates) is driven by runtime
// counters; this package gives those counters one home instead of three
// ad-hoc Stats structs, and adds what the structs could not express:
// histograms (offset-cache probe length, allocation-size distribution,
// layout entropy), structured violation events, and phase spans for the
// parse → CIE → instrument → run → eval pipeline.
//
// Design rules:
//
//   - Zero dependencies beyond the standard library.
//   - Disabled telemetry costs one branch: subsystems hold a *Telemetry
//     that is nil by default and guard every emission with a nil check,
//     so no Event is even constructed when observability is off.
//   - Deterministic output: registry snapshots encode with sorted keys,
//     so two runs with the same seed produce byte-identical JSON.
//   - Concurrency-safe: counters, gauges and histogram buckets are
//     atomics; the registry, recorder and tracer are mutex-protected.
//     One Telemetry may serve many VMs.
package telemetry

// Telemetry bundles the three facilities a subsystem may use. Bus and
// Registry are always non-nil on a value built by New; Tracer is
// optional (nil unless span tracing was requested).
type Telemetry struct {
	Bus      *Bus
	Registry *Registry
	Tracer   *Tracer
}

// New returns a Telemetry with a fresh registry and an event bus wired
// to count every event kind into the registry (counter "event.<kind>").
func New() *Telemetry {
	reg := NewRegistry()
	bus := NewBus(CountingSink(reg))
	return &Telemetry{Bus: bus, Registry: reg}
}

// WithTracer attaches tr and subscribes it to the bus so violation
// events appear as instant events on the trace timeline. It returns t
// for chaining.
func (t *Telemetry) WithTracer(tr *Tracer) *Telemetry {
	t.Tracer = tr
	if tr != nil {
		t.Bus.Attach(tr)
	}
	return t
}

// Emit forwards to the bus; safe on a nil receiver so call sites can
// collapse the guard and the emission when the Event is cheap to build.
// Hot paths should still guard with `if tel != nil` before constructing
// the Event.
func (t *Telemetry) Emit(e Event) {
	if t == nil {
		return
	}
	t.Bus.Emit(e)
}

// Canonical metric names. Subsystems register these so dashboards and
// tests have one vocabulary; see DESIGN.md "Observability".
const (
	// Histograms.
	MetricHeapAllocSize  = "heap.alloc_size_bytes"       // allocation-size distribution
	MetricCacheProbeLen  = "core.offset_cache_probe_len" // member-resolution probe length
	MetricLayoutEntropy  = "core.layout_entropy_bits"    // entropy of each generated layout
	MetricInternChainLen = "core.layout_intern_chain"    // dedup-bucket scan length

	// Gauges.
	MetricMetaLoadFactor = "core.metadata_load_factor" // live records / total records
)

// Standard fixed bucket bounds (upper-inclusive; an implicit +Inf
// bucket catches the rest).
var (
	// AllocSizeBuckets mirrors the heap's size classes.
	AllocSizeBuckets = []float64{16, 32, 48, 64, 96, 128, 192, 256, 384, 512, 1024, 2048, 4096, 8192, 16384, 32768}
	// ProbeLenBuckets is the canonical vocabulary for the
	// member-resolution probe-length histogram — every getptr event
	// lands in exactly one of these buckets, by Resolution.ProbeLen
	// (asserted by TestProbeBucketsCanonical in internal/core):
	//   0 = stateless keyed derivation — no metadata structure probed,
	//   1 = offset-cache hit,
	//   2 = cache miss + metadata-table record,
	//   3 = the static-table arm, in either strategy,
	//   4+ = reserved.
	ProbeLenBuckets = []float64{0, 1, 2, 3, 4}
	// EntropyBuckets covers the bit range of Fig. 2-scale classes.
	EntropyBuckets = []float64{0, 2, 4, 6, 8, 10, 12, 16, 20, 24, 32}
	// ChainLenBuckets for dedup-bucket scans.
	ChainLenBuckets = []float64{0, 1, 2, 4, 8, 16}
)
