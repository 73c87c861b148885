package vm

import (
	"bytes"
	"testing"

	"polar/internal/telemetry/exectrace"
)

// TestExecTraceStaysOnBytecode pins the structural-zero contract: an
// execution-trace writer is not an observer, so attaching one keeps the
// instance on callBC's fused dispatch, and an instance without one
// carries no trace state at all.
func TestExecTraceStaysOnBytecode(t *testing.T) {
	p, err := Compile(richModule(t))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := p.NewInstance()
	if err != nil {
		t.Fatal(err)
	}
	if plain.ExecTrace() != nil {
		t.Fatal("instance without WithExecTrace carries a trace writer")
	}

	var buf bytes.Buffer
	xw := exectrace.NewWriter(&buf)
	traced, err := p.NewInstance(WithExecTrace(xw))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := traced.Run(6); err != nil {
		t.Fatal(err)
	}
	if xw.Records() == 0 {
		t.Fatal("traced bytecode run recorded nothing")
	}
	if traced.Perf.FusedDispatches == 0 {
		t.Fatal("traced run dispatched no fused runs")
	}
}

// TestExecTraceEngineIdentity runs the opcode-mix module on the
// bytecode engine (plain and observed) and on the reference with fresh
// writers and demands byte-identical traces — the block/call record
// placement must agree exactly between both dispatch loops and the
// tree-walker.
func TestExecTraceEngineIdentity(t *testing.T) {
	p, err := Compile(richModule(t))
	if err != nil {
		t.Fatal(err)
	}
	trace := func(e engine, opts ...Option) []byte {
		t.Helper()
		var buf bytes.Buffer
		xw := exectrace.NewWriter(&buf)
		v, err := p.NewInstance(append(opts, WithExecTrace(xw))...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.run(v, 6); err != nil {
			t.Fatal(err)
		}
		if err := xw.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	ref := trace(reference)
	for name, got := range map[string][]byte{
		"bytecode": trace(bytecode),
		"observed": trace(bytecode, WithTaint(&RecordingSink{})),
	} {
		if bytes.Equal(got, ref) {
			continue
		}
		ta, errA := exectrace.Read(bytes.NewReader(got))
		tb, errB := exectrace.Read(bytes.NewReader(ref))
		if errA != nil || errB != nil {
			t.Fatalf("%s: traces differ and do not decode: %v / %v", name, errA, errB)
		}
		if d := exectrace.Diff(ta, tb); d != nil {
			t.Fatalf("%s: engine traces diverge:\n%s", name, d.Format(name, "reference"))
		}
		t.Fatalf("%s: engine traces byte-differ but records match (encoding drift)", name)
	}
}
