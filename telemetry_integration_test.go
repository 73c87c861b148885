package polar

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"polar/internal/telemetry"
)

// TestTelemetryEndToEnd drives the quickstart program through the full
// hardened pipeline with telemetry attached and pins the two acceptance
// contracts: the metrics snapshot is deterministic (byte-identical JSON
// across same-seed runs) and carries counters plus at least two
// populated histograms, and the trace output is a valid Chrome
// trace-event JSON array covering the pipeline phases.
func TestTelemetryEndToEnd(t *testing.T) {
	src, err := os.ReadFile("examples/quickstart/quickstart.ir")
	if err != nil {
		t.Fatal(err)
	}

	run := func() ([]byte, string) {
		t.Helper()
		m, err := Parse(string(src))
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		var traceBuf bytes.Buffer
		tr := NewTracer(&traceBuf)
		tel := NewTelemetry().WithTracer(tr)
		h, err := HardenTraced(m, nil, tel)
		if err != nil {
			t.Fatalf("harden: %v", err)
		}
		res, err := RunHardened(h, WithSeed(42), WithTelemetry(tel))
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		if res.Value == 0 {
			t.Fatal("quickstart returned 0")
		}
		data, err := tel.Registry.Snapshot().EncodeJSON()
		if err != nil {
			t.Fatalf("encode snapshot: %v", err)
		}
		if err := tr.Close(); err != nil {
			t.Fatalf("close tracer: %v", err)
		}
		return data, traceBuf.String()
	}

	snap1, trace := run()
	snap2, _ := run()
	if !bytes.Equal(snap1, snap2) {
		t.Fatalf("same-seed snapshots differ:\n%s\nvs\n%s", snap1, snap2)
	}

	s, err := telemetry.DecodeSnapshot(snap1)
	if err != nil {
		t.Fatalf("snapshot does not round-trip: %v", err)
	}
	for _, c := range []string{"event.alloc", "event.layout-gen", "core.allocs", "vm.instructions"} {
		if s.Counters[c] == 0 {
			t.Fatalf("counter %q missing or zero in snapshot:\n%s", c, snap1)
		}
	}
	populated := 0
	for name, h := range s.Histograms {
		if h.Count > 0 {
			populated++
			continue
		}
		t.Logf("histogram %q empty", name)
	}
	if populated < 2 {
		t.Fatalf("%d populated histograms, want >= 2:\n%s", populated, snap1)
	}
	for _, name := range []string{telemetry.MetricLayoutEntropy, telemetry.MetricHeapAllocSize} {
		if s.Histograms[name].Count == 0 {
			t.Fatalf("histogram %q not populated:\n%s", name, snap1)
		}
	}

	var events []map[string]any
	if err := json.Unmarshal([]byte(trace), &events); err != nil {
		t.Fatalf("trace is not a JSON array: %v\n%s", err, trace)
	}
	phases := map[string]bool{}
	for _, e := range events {
		for _, field := range []string{"name", "cat", "ph", "ts", "pid", "tid"} {
			if _, ok := e[field]; !ok {
				t.Fatalf("trace event %v missing field %q", e, field)
			}
		}
		if name, ok := e["name"].(string); ok {
			phases[name] = true
		}
	}
	for _, want := range []string{"cie", "instrument", "run"} {
		if !phases[want] {
			t.Fatalf("trace missing %q span; have %v", want, phases)
		}
	}
}
