package exectrace

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"polar/internal/telemetry"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)

	site := w.Intern("@main.entry")
	cls := w.Intern("Victim")
	fn := w.Intern("@main")

	w.Call(fn)
	w.Block(site)
	w.alloc(site, 0xabc, 0x10000, 64, 0xdef, cls)
	w.getptr(site, 0xabc, 2, 0x10000, 24, ResMetadata)
	w.getptr(site, 0xabc, 2, 0x10000, 24, ResCacheHit)
	w.free(site, 0xabc, 0x10000, 0xdef)
	// Bus-fed records.
	w.Event(telemetry.Event{Kind: telemetry.EvFuelCheckpoint, Size: 999, Detail: "run-start"})
	w.Event(telemetry.Event{Kind: telemetry.EvAlloc, Addr: 0x2000, Size: 16, Detail: "Raw"}) // raw VM alloc
	w.Event(telemetry.Event{Kind: telemetry.EvAlloc, Addr: 0x3000, Size: 16, Class: 7, Layout: 9, Site: "@main.entry", Detail: "Victim"})
	w.Event(telemetry.Event{Kind: telemetry.EvFieldHit, Addr: 0x3000, Class: 7, Field: 1, Site: "@main.entry", Off: 8, Res: ResStateless})
	w.Event(telemetry.Event{Kind: telemetry.EvFree, Addr: 0x3000, Class: 7, Layout: 9, Site: "@main.entry"})
	w.Event(telemetry.Event{Kind: telemetry.EvLayoutGen, Class: 0xabc, Layout: 0xdef, Size: 64, Detail: "Victim"})
	w.Event(telemetry.Event{Kind: telemetry.EvViolation, Addr: 0x10010, Class: 0xabc, Layout: 0xdef, Field: 3, Site: "@main.entry", Detail: "use-after-free"})
	w.Event(telemetry.Event{Kind: telemetry.EvTaintUnion, Addr: 0x4000, Label: 0b101, Size: 8})
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if got, want := w.Records(), uint64(14); got != want {
		t.Fatalf("records = %d, want %d", got, want)
	}

	tr, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !tr.Complete || tr.Count != 14 || tr.Dropped != 0 {
		t.Fatalf("footer: complete=%v count=%d dropped=%d", tr.Complete, tr.Count, tr.Dropped)
	}
	want := []Record{
		{Kind: KindCall, Fn: "@main"},
		{Kind: KindBlock, Site: "@main.entry"},
		{Kind: KindAlloc, Site: "@main.entry", Class: 0xabc, Base: 0x10000, Size: 64, Layout: 0xdef, Detail: "Victim"},
		{Kind: KindGetptr, Site: "@main.entry", Class: 0xabc, Field: 2, Base: 0x10000, Off: 24, Res: ResMetadata},
		{Kind: KindGetptr, Site: "@main.entry", Class: 0xabc, Field: 2, Base: 0x10000, Off: 24, Res: ResCacheHit},
		{Kind: KindFree, Site: "@main.entry", Class: 0xabc, Base: 0x10000, Layout: 0xdef},
		{Kind: KindFuel, Size: 999, Detail: "run-start"},
		{Kind: KindAlloc, Base: 0x2000, Size: 16, Detail: "Raw"},
		{Kind: KindAlloc, Site: "@main.entry", Class: 7, Base: 0x3000, Size: 16, Layout: 9, Detail: "Victim"},
		{Kind: KindGetptr, Site: "@main.entry", Class: 7, Field: 1, Base: 0x3000, Off: 8, Res: ResStateless},
		{Kind: KindFree, Site: "@main.entry", Class: 7, Base: 0x3000, Layout: 9},
		{Kind: KindLayoutGen, Class: 0xabc, Layout: 0xdef, Size: 64, Detail: "Victim"},
		{Kind: KindViolation, Base: 0x10010, Class: 0xabc, Layout: 0xdef, Field: 3, Site: "@main.entry", Detail: "use-after-free"},
		{Kind: KindEvent, Ev: telemetry.EvTaintUnion, Base: 0x4000, Size: 8, Field: 0, Label: 0b101},
	}
	if len(tr.Records) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(tr.Records), len(want))
	}
	for i := range want {
		if tr.Records[i] != want[i] {
			t.Errorf("record %d:\n got %+v\nwant %+v", i, tr.Records[i], want[i])
		}
	}
}

func TestFieldMinusOneRoundTrips(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.getptr(0, 1, -1, 0x10, 0, ResStatic)
	w.Event(telemetry.Event{Kind: telemetry.EvViolation, Field: -1, Detail: "bad-free"})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	tr, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Records[0].Field != -1 || tr.Records[1].Field != -1 {
		t.Fatalf("field -1 did not round-trip: %+v %+v", tr.Records[0], tr.Records[1])
	}
}

func TestInterningIsStable(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	a := w.Intern("@f.b0")
	b := w.Intern("@f.b1")
	if a2 := w.Intern("@f.b0"); a2 != a {
		t.Fatalf("re-intern changed id: %d vs %d", a2, a)
	}
	if a == b || a == 0 || b == 0 {
		t.Fatalf("ids must be distinct and nonzero: %d %d", a, b)
	}
	if w.Intern("") != 0 {
		t.Fatal("empty string must intern to 0")
	}
}

func TestDeterministicBytes(t *testing.T) {
	emit := func() []byte {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		s := w.Intern("@main.loop")
		for i := 0; i < 1000; i++ {
			w.Block(s)
			w.getptr(s, 42, i%3, uint64(0x1000+i), i, ResMetadata)
		}
		w.Close()
		return buf.Bytes()
	}
	if !bytes.Equal(emit(), emit()) {
		t.Fatal("identical record sequences must serialize byte-identically")
	}
}

func TestRecordCap(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriterLimit(&buf, 2)
	s := w.Intern("@m.e")
	for i := 0; i < 5; i++ {
		w.Block(s)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Records() != 2 || w.Dropped() != 3 {
		t.Fatalf("records=%d dropped=%d, want 2/3", w.Records(), w.Dropped())
	}
	tr, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Records) != 2 || tr.Dropped != 3 || !tr.Complete {
		t.Fatalf("decoded %d records, footer dropped=%d complete=%v", len(tr.Records), tr.Dropped, tr.Complete)
	}
}

type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errors.New("disk full")
	}
	f.n--
	return len(p), nil
}

func TestStickyWriteError(t *testing.T) {
	w := NewWriterLimit(&failWriter{n: 0}, 0)
	s := w.Intern("@m.e")
	// Force enough volume to trigger a flush.
	for i := 0; i < 100000; i++ {
		w.Block(s)
	}
	if err := w.Close(); err == nil {
		t.Fatal("expected sticky write error")
	}
	if w.Dropped() == 0 {
		t.Fatal("records after the failure must count as dropped")
	}
}

func TestWriterAfterCloseDrops(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Close()
	n := buf.Len()
	w.Block(w.Intern("@x.y"))
	w.Close()
	if buf.Len() != n {
		t.Fatal("writes after Close must not change the stream")
	}
	if w.Dropped() != 1 {
		t.Fatalf("dropped=%d, want 1", w.Dropped())
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("not a trace at all"))); err == nil {
		t.Fatal("expected magic error")
	}
}

func TestPublish(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriterLimit(&buf, 1)
	s := w.Intern("@m.e")
	w.Block(s)
	w.Block(s)
	reg := telemetry.NewRegistry()
	w.Publish(reg)
	snap := reg.Snapshot()
	if snap.Counters["exectrace.records"] != 1 || snap.Counters["exectrace.dropped"] != 1 {
		t.Fatalf("published counters wrong: %+v", snap.Counters)
	}
}

func mkTrace(recs ...Record) *Trace {
	return &Trace{Schema: Schema, Records: recs, Count: uint64(len(recs)), Complete: true}
}

func TestDiffIdentical(t *testing.T) {
	a := mkTrace(Record{Kind: KindBlock, Site: "@m.e"}, Record{Kind: KindCall, Fn: "@f"})
	b := mkTrace(Record{Kind: KindBlock, Site: "@m.e"}, Record{Kind: KindCall, Fn: "@f"})
	if d := Diff(a, b); d != nil {
		t.Fatalf("expected no divergence, got %+v", d)
	}
}

func TestDiffLocalizesExactRecord(t *testing.T) {
	base := []Record{
		{Kind: KindCall, Fn: "@main"},
		{Kind: KindBlock, Site: "@main.entry"},
		{Kind: KindAlloc, Site: "@main.entry", Class: 1, Base: 0x1000, Size: 8},
		{Kind: KindGetptr, Site: "@main.entry", Class: 1, Field: 0, Base: 0x1000, Off: 0, Res: ResMetadata},
		{Kind: KindBlock, Site: "@main.exit"},
	}
	perturbed := append([]Record(nil), base...)
	perturbed[3].Off = 8 // the seeded perturbation: one resolved offset differs
	d := Diff(mkTrace(base...), mkTrace(perturbed...))
	if d == nil {
		t.Fatal("expected divergence")
	}
	if d.Index != 3 {
		t.Fatalf("divergence index = %d, want 3", d.Index)
	}
	if d.A == nil || d.B == nil || d.A.Off != 0 || d.B.Off != 8 {
		t.Fatalf("divergent records wrong: %+v vs %+v", d.A, d.B)
	}
	if len(d.ContextA) != 3 || d.ContextA[0].Kind != KindCall {
		t.Fatalf("context wrong: %+v", d.ContextA)
	}
	out := d.Format("a", "b")
	if !bytes.Contains([]byte(out), []byte("diverge at record 3")) {
		t.Fatalf("report missing index: %s", out)
	}
}

func TestDiffPrefix(t *testing.T) {
	long := mkTrace(Record{Kind: KindBlock, Site: "@m.e"}, Record{Kind: KindBlock, Site: "@m.x"})
	short := mkTrace(Record{Kind: KindBlock, Site: "@m.e"})
	d := Diff(long, short)
	if d == nil || d.Index != 1 || d.A == nil || d.B != nil {
		t.Fatalf("prefix divergence wrong: %+v", d)
	}
}

func TestStatsAndCrossCheck(t *testing.T) {
	tr := mkTrace(
		Record{Kind: KindCall, Fn: "@main"},
		Record{Kind: KindBlock, Site: "@main.entry"},
		Record{Kind: KindAlloc, Site: "@main.entry", Class: 5, Base: 0x1000, Size: 32, Layout: 9, Detail: "Victim"},
		Record{Kind: KindGetptr, Site: "@main.entry", Class: 5, Field: 1, Base: 0x1000, Off: 8, Res: ResMetadata},
		Record{Kind: KindGetptr, Site: "@main.entry", Class: 5, Field: 1, Base: 0x1000, Off: 8, Res: ResCacheHit},
		Record{Kind: KindFree, Site: "@main.entry", Class: 5, Base: 0x1000, Layout: 9},
		Record{Kind: KindAlloc, Base: 0x2000, Size: 8, Detail: "Raw"},
	)
	s := Compute(tr)
	if s.Allocs != 2 || s.Frees != 1 || s.Getptrs != 2 || s.CacheHits != 1 || s.Metadata != 1 {
		t.Fatalf("rollups wrong: %+v", s)
	}
	if c := s.ByClass["Victim"]; c == nil || c.Allocs != 1 || c.Getptrs != 2 || len(c.Layouts) != 1 {
		t.Fatalf("class rollup wrong: %+v", s.ByClass)
	}
	if s.BySite["@main.entry"] != 2 {
		t.Fatalf("site rollup wrong: %+v", s.BySite)
	}

	reg := telemetry.NewRegistry()
	reg.Counter("event.alloc").Add(2)
	reg.Counter("event.free").Add(1)
	reg.Counter("event.fieldptr-hit").Add(1)
	reg.Counter("event.fieldptr-miss").Add(1)
	if msgs := CrossCheck(s, reg.Snapshot()); len(msgs) != 0 {
		t.Fatalf("cross-check should pass: %v", msgs)
	}
	reg.Counter("event.alloc").Add(1)
	if msgs := CrossCheck(s, reg.Snapshot()); len(msgs) != 1 {
		t.Fatalf("cross-check should flag alloc mismatch: %v", msgs)
	}
}

// TestStatsCountsStateless: stateless-mode derivations are their own
// resolution path in the rollup, and the cross-check counts them as
// bus hits — the stateless resolver emits fieldptr-hit for each.
func TestStatsCountsStateless(t *testing.T) {
	tr := mkTrace(
		Record{Kind: KindAlloc, Site: "@main.entry", Class: 5, Base: 0x1000, Size: 32, Layout: 9, Detail: "Victim"},
		Record{Kind: KindGetptr, Site: "@main.entry", Class: 5, Field: 1, Base: 0x1000, Off: 8, Res: ResStateless},
		Record{Kind: KindGetptr, Site: "@main.entry", Class: 5, Field: 2, Base: 0x1000, Off: 0, Res: ResStateless},
		Record{Kind: KindGetptr, Site: "@main.entry", Class: 5, Field: 0, Base: 0x3000, Off: 0, Res: ResStatic},
	)
	s := Compute(tr)
	if s.Getptrs != 3 || s.Stateless != 2 || s.Static != 1 || s.CacheHits != 0 || s.Metadata != 0 {
		t.Fatalf("rollups wrong: %+v", s)
	}
	if !strings.Contains(s.Format(), "getptr: 3 (cache-hit 0, metadata 0, stateless 2, static 1)") {
		t.Fatalf("report does not split the stateless path:\n%s", s.Format())
	}
	reg := telemetry.NewRegistry()
	reg.Counter("event.alloc").Add(1)
	reg.Counter("event.fieldptr-hit").Add(2)
	reg.Counter("event.fieldptr-miss").Add(1)
	if msgs := CrossCheck(s, reg.Snapshot()); len(msgs) != 0 {
		t.Fatalf("cross-check should pass: %v", msgs)
	}
}
