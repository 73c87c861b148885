package health

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"testing"

	"polar/internal/telemetry"
)

func alloc(m *Monitor, class, layout uint64, name string) {
	m.Event(telemetry.Event{Kind: telemetry.EvAlloc, Class: class, Layout: layout, Detail: name})
}

func free(m *Monitor, class, layout uint64) {
	m.Event(telemetry.Event{Kind: telemetry.EvFree, Class: class, Layout: layout})
}

func violate(m *Monitor, class uint64, field int) {
	m.Event(telemetry.Event{Kind: telemetry.EvViolation, Class: class, Field: field})
}

func TestScanDetectorDistinctOffsets(t *testing.T) {
	m := NewMonitor(nil)
	alloc(m, 1, 0xA, "Victim")
	violate(m, 1, 0)
	violate(m, 1, 1)
	if m.Status() != StatusDegraded {
		t.Fatalf("after 2 distinct-offset violations status = %v, want DEGRADED (not yet a scan)", m.Status())
	}
	violate(m, 1, 2)
	if m.Status() != StatusCritical {
		t.Fatalf("after 3 distinct-offset violations status = %v, want CRITICAL", m.Status())
	}
	rep := m.Report()
	if len(rep.Classes) != 1 || !rep.Classes[0].ScanAlert {
		t.Fatalf("scan alert not reported: %+v", rep.Classes)
	}
	if got := rep.Classes[0].ProbedOffsets; len(got) != 3 || got[0] != 0 || got[2] != 2 {
		t.Errorf("probed offsets = %v, want [0 1 2]", got)
	}
}

func TestScanDetectorIgnoresRepeatedOffset(t *testing.T) {
	m := NewMonitor(nil)
	alloc(m, 1, 0xA, "Victim")
	// A benign recurring bug: many violations, all at one offset.
	for i := 0; i < 10; i++ {
		violate(m, 1, 2)
	}
	if m.Status() != StatusDegraded {
		t.Fatalf("status = %v, want DEGRADED (violations present, but no scan)", m.Status())
	}
	for _, c := range m.Report().Classes {
		if c.ScanAlert {
			t.Fatal("scan alert latched on a single-offset violation stream")
		}
	}
}

func TestScanAlertLatches(t *testing.T) {
	m := NewMonitor(nil)
	violate(m, 1, 0)
	violate(m, 1, 1)
	violate(m, 1, 2)
	if m.Status() != StatusCritical {
		t.Fatal("scan alert did not fire")
	}
	// Later benign traffic must not clear it.
	for i := 0; i < 2*recomputeEvery; i++ {
		alloc(m, 2, uint64(1000+i), "Bystander")
	}
	if m.Status() != StatusCritical {
		t.Fatal("scan alert un-latched after benign traffic")
	}
}

func TestEntropyDepletion(t *testing.T) {
	m := NewMonitor(nil)
	// A diverse class: every allocation gets its own layout.
	for i := 0; i < depletionMinAllocs; i++ {
		alloc(m, 1, uint64(0x100+i), "Diverse")
	}
	if m.Status() != StatusOK {
		t.Fatalf("diverse class status = %v, want OK", m.Status())
	}
	// A depleted class: many live objects on two layouts.
	for i := 0; i < depletionMinAllocs; i++ {
		alloc(m, 2, uint64(0xA+i%2), "Depleted")
	}
	if m.Status() != StatusDegraded {
		t.Fatalf("depleted class status = %v, want DEGRADED (reasons %v)", m.Status(), m.Report().Reasons)
	}
	rep := m.Report()
	var dep *ClassReport
	for i := range rep.Classes {
		if rep.Classes[i].Class == "Depleted" {
			dep = &rep.Classes[i]
		}
	}
	if dep == nil {
		t.Fatal("Depleted class missing from report")
	}
	if dep.DistinctLiveLayouts != 2 || dep.EffectiveEntropyBits != 1 {
		t.Errorf("depleted class live-layouts=%d entropy=%v, want 2 layouts / 1.0 bits",
			dep.DistinctLiveLayouts, dep.EffectiveEntropyBits)
	}
}

func TestEntropyRecoversOnFree(t *testing.T) {
	m := NewMonitor(nil)
	for i := 0; i < depletionMinAllocs; i++ {
		alloc(m, 1, uint64(0xA+i%2), "C")
	}
	if m.Status() != StatusDegraded {
		t.Fatal("setup: depletion did not trigger")
	}
	// Free enough that the live population drops below the floor.
	for i := 0; i < depletionMinAllocs-depletionMinLive+1; i++ {
		free(m, 1, uint64(0xA+i%2))
	}
	if m.Status() != StatusOK {
		t.Fatalf("after frees status = %v, want OK (live population below detector floor)", m.Status())
	}
}

func TestCacheHitRate(t *testing.T) {
	m := NewMonitor(nil)
	for i := 0; i < 3; i++ {
		m.Event(telemetry.Event{Kind: telemetry.EvFieldHit})
	}
	m.Event(telemetry.Event{Kind: telemetry.EvFieldMiss})
	rep := m.Report()
	if rep.CacheHits != 3 || rep.CacheMisses != 1 || rep.CacheHitRate != 0.75 {
		t.Errorf("cache hits/misses/rate = %d/%d/%v, want 3/1/0.75",
			rep.CacheHits, rep.CacheMisses, rep.CacheHitRate)
	}
}

func TestReportDeterministic(t *testing.T) {
	build := func() []byte {
		m := NewMonitor(nil)
		alloc(m, 7, 0x1, "B")
		alloc(m, 3, 0x2, "A")
		violate(m, 7, 1)
		violate(m, 3, 0)
		b, err := json.Marshal(m.Report())
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if a, b := build(), build(); !bytes.Equal(a, b) {
		t.Fatalf("reports differ:\n%s\n%s", a, b)
	}
}

func TestSlogTransitions(t *testing.T) {
	var buf bytes.Buffer
	m := NewMonitor(slog.New(slog.NewJSONHandler(&buf, &slog.HandlerOptions{
		// Strip time so the assertion is deterministic.
		ReplaceAttr: func(groups []string, a slog.Attr) slog.Attr {
			if a.Key == slog.TimeKey {
				return slog.Attr{}
			}
			return a
		},
	})))
	violate(m, 1, 0) // OK -> DEGRADED
	violate(m, 1, 1)
	violate(m, 1, 2) // DEGRADED -> CRITICAL
	out := buf.String()
	if !bytes.Contains([]byte(out), []byte(`"to":"DEGRADED"`)) ||
		!bytes.Contains([]byte(out), []byte(`"to":"CRITICAL"`)) {
		t.Fatalf("missing transition records in slog output:\n%s", out)
	}
}

func TestAttachOnce(t *testing.T) {
	m := NewMonitor(nil)
	bus := telemetry.NewBus()
	m.AttachOnce(bus)
	m.AttachOnce(bus)
	bus.Emit(telemetry.Event{Kind: telemetry.EvAlloc, Class: 1, Layout: 2})
	if rep := m.Report(); len(rep.Classes) != 1 || rep.Classes[0].Allocs != 1 {
		t.Fatalf("double attach double-counted: %+v", rep.Classes)
	}
}
