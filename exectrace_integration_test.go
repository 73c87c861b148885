package polar

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"testing"

	"polar/internal/evalrun"
	"polar/internal/exploit"
	"polar/internal/ir"
	"polar/internal/telemetry/exectrace"
)

// traceCaseStudy hardens m, runs it once with an execution trace
// attached (warn policy, so attack scenarios complete), and returns the
// encoded trace.
func traceCaseStudy(t *testing.T, m *ir.Module, seed int64, args []int64) []byte {
	t.Helper()
	var buf bytes.Buffer
	xw := NewExecTrace(&buf)
	h, err := Harden(ir.Clone(m), nil)
	if err != nil {
		t.Fatalf("harden: %v", err)
	}
	if _, err := RunHardened(h, WithSeed(seed), WithWarnPolicy(),
		WithExecTrace(xw), WithArgs(args...)); err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := xw.Close(); err != nil {
		t.Fatalf("close trace: %v", err)
	}
	return buf.Bytes()
}

// TestExecTraceParallelWidthIdentical gives each of eight tasks its own
// writer and runs the pool at width 1 and width 8: every task's trace
// must be byte-identical across widths. Scheduling may reorder task
// execution, but each trace is single-owner and seed-derived, so the
// bytes cannot care.
func TestExecTraceParallelWidthIdentical(t *testing.T) {
	cs := exploit.CaseStudies()[0]
	h, err := Harden(cs.Build(), nil)
	if err != nil {
		t.Fatal(err)
	}
	prep, err := PrepareHardened(h)
	if err != nil {
		t.Fatal(err)
	}
	const tasks = 8
	collect := func(width int) [][]byte {
		t.Helper()
		bufs := make([]bytes.Buffer, tasks)
		if err := evalrun.ForEach(tasks, width, func(i int) error {
			xw := NewExecTrace(&bufs[i])
			seed := evalrun.TaskSeed(42, fmt.Sprintf("run/%d", i))
			if _, err := prep.Run(WithSeed(seed), WithWarnPolicy(),
				WithExecTrace(xw), WithArgs(cs.AttackArgs...)); err != nil {
				return err
			}
			return xw.Close()
		}); err != nil {
			t.Fatal(err)
		}
		out := make([][]byte, tasks)
		for i := range bufs {
			out[i] = bufs[i].Bytes()
		}
		return out
	}
	serial, parallel := collect(1), collect(tasks)
	for i := range serial {
		if len(serial[i]) == 0 {
			t.Fatalf("task %d: empty trace", i)
		}
		if !bytes.Equal(serial[i], parallel[i]) {
			t.Errorf("task %d: trace bytes differ between -parallel 1 and -parallel %d", i, tasks)
		}
	}
}

// TestExecTraceLocalizesSeedPerturbation perturbs the seed and checks
// the diff names the exact first divergent record — which must be the
// first seed-dependent event (a layout generation or randomized
// allocation), never a block or call (control flow is seed-independent
// for this module).
func TestExecTraceLocalizesSeedPerturbation(t *testing.T) {
	cs := exploit.CaseStudies()[0]
	a := traceCaseStudy(t, cs.Build(), 42, cs.AttackArgs)
	b := traceCaseStudy(t, cs.Build(), 43, cs.AttackArgs)
	ta, err := exectrace.Read(bytes.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	tb, err := exectrace.Read(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	d := exectrace.Diff(ta, tb)
	if d == nil {
		t.Fatal("different seeds produced identical traces")
	}
	// Exactness: every record before the reported index matches, and the
	// reported pair differs.
	for i := 0; i < d.Index; i++ {
		if ta.Records[i] != tb.Records[i] {
			t.Fatalf("records differ at %d, before reported divergence %d", i, d.Index)
		}
	}
	if d.A == nil || d.B == nil || *d.A == *d.B {
		t.Fatalf("reported divergence is not a divergence: %+v vs %+v", d.A, d.B)
	}
	switch d.A.Kind {
	case exectrace.KindBlock, exectrace.KindCall:
		t.Errorf("first divergence is control flow (%s), want a seed-dependent event", d.A.Kind)
	}
}

// TestExecTraceCrossCheckBothModes runs the quickstart hardened with an
// execution trace and a metrics registry attached — metadata mode, and
// stateless mode with and without a rekey every 4 frees — and every
// case study in both modes under the warn and the abort policy, and
// requires the trace rollups to agree with the registry's event
// counters exactly, as `polartrace stats -metrics` checks them. Every
// observer reads the same event, so a run a violation aborts agrees as
// much as a completed one.
func TestExecTraceCrossCheckBothModes(t *testing.T) {
	src, err := os.ReadFile("examples/quickstart/quickstart.ir")
	if err != nil {
		t.Fatal(err)
	}
	quickstart, err := Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	type cell struct {
		name  string
		mod   *ir.Module
		args  []int64
		mode  LayoutMode
		rekey int
		warn  bool
	}
	cells := []cell{
		{"quickstart/metadata", quickstart, nil, LayoutModeMetadata, 0, false},
		{"quickstart/stateless", quickstart, nil, LayoutModeStateless, 0, false},
		{"quickstart/stateless-rekey-4", quickstart, nil, LayoutModeStateless, 4, false},
	}
	for _, cs := range exploit.CaseStudies() {
		for _, mode := range []LayoutMode{LayoutModeMetadata, LayoutModeStateless} {
			for _, warn := range []bool{true, false} {
				policy := "abort"
				if warn {
					policy = "warn"
				}
				cells = append(cells, cell{fmt.Sprintf("%s/%s/%s", cs.Name, mode, policy), cs.Build(), cs.AttackArgs, mode, 0, warn})
			}
		}
	}
	for _, c := range cells {
		h, err := Harden(ir.Clone(c.mod), nil)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		xw := NewExecTrace(&buf)
		tel := NewTelemetry()
		opts := []Option{WithSeed(7), WithLayoutMode(c.mode), WithRekeyEvery(c.rekey),
			WithTelemetry(tel), WithExecTrace(xw), WithArgs(c.args...)}
		if c.warn {
			opts = append(opts, WithWarnPolicy())
		}
		_, runErr := RunHardened(h, opts...)
		if runErr != nil && !errors.As(runErr, new(*Violation)) {
			t.Fatalf("%s: %v", c.name, runErr)
		}
		if err := xw.Close(); err != nil {
			t.Fatal(err)
		}
		tr, err := exectrace.Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		s := exectrace.Compute(tr)
		if msgs := exectrace.CrossCheck(s, tel.Registry.Snapshot()); len(msgs) != 0 {
			t.Errorf("%s: trace disagrees with the registry: %v", c.name, msgs)
		}
		if c.mod != quickstart {
			continue
		}
		resolved := s.CacheHits + s.Metadata
		if c.mode == LayoutModeStateless {
			resolved = s.Stateless
		}
		if s.Getptrs == 0 || resolved == 0 {
			t.Errorf("%s: no getptr resolved on the mode's own path: %+v", c.name, s)
		}
	}
}
