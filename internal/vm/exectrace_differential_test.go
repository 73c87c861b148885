package vm_test

import (
	"bytes"
	"strings"
	"testing"

	"polar/internal/core"
	"polar/internal/evalrun"
	"polar/internal/exploit"
	"polar/internal/telemetry"
	"polar/internal/telemetry/exectrace"
	"polar/internal/vm"
	"polar/internal/workload"
)

// traceRun runs one hardened instance of prog on engine e with a
// deterministic execution trace attached and returns the encoded trace.
// The trace rides a private telemetry layer, as polar.WithExecTrace
// arranges, so it also carries the bus-fed records (fuel checkpoints,
// raw VM allocations, violations). opts are extra instance options.
func traceRun(t *testing.T, s hardenedSetup, prog *vm.Program, cfg core.Config, input []byte, args []int64, e engine, opts ...vm.Option) []byte {
	t.Helper()
	var buf bytes.Buffer
	xw := exectrace.NewWriter(&buf)
	tel := telemetry.New()
	cfg.Telemetry = tel
	cfg.ExecTrace = xw
	opts = append(opts, vm.WithInput(input), vm.WithTelemetry(tel), vm.WithExecTrace(xw))
	v, err := prog.NewInstance(opts...)
	if err != nil {
		t.Fatal(err)
	}
	core.New(s.ins.Table, cfg).Attach(v)
	if _, err := e.run(v, args...); err != nil {
		t.Fatalf("%s: %v", e.name, err)
	}
	if err := xw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// requireSameTrace fails with the first divergent record when the
// bytecode trace bc and the reference trace ref differ.
func requireSameTrace(t *testing.T, bc, ref []byte) {
	t.Helper()
	requireSameTraceAs(t, bc, ref, "bytecode", "reference")
}

// requireSameTraceAs is requireSameTrace for traces of any two runs,
// named nameA and nameB in the failure.
func requireSameTraceAs(t *testing.T, a, b []byte, nameA, nameB string) {
	t.Helper()
	if bytes.Equal(a, b) {
		return
	}
	ta, errA := exectrace.Read(bytes.NewReader(a))
	tb, errB := exectrace.Read(bytes.NewReader(b))
	if errA != nil || errB != nil {
		t.Fatalf("traces differ and do not decode: %v / %v", errA, errB)
	}
	if d := exectrace.Diff(ta, tb); d != nil {
		t.Fatalf("traces diverge:\n%s", d.Format(nameA, nameB))
	}
	t.Fatal("traces byte-differ but records match (encoding drift)")
}

// traceBoth traces one run per engine and requires byte identity,
// returning the bytecode trace.
func traceBoth(t *testing.T, s hardenedSetup, prog *vm.Program, cfg core.Config, input []byte, args []int64) []byte {
	t.Helper()
	bc := traceRun(t, s, prog, cfg, input, args, engines[0])
	requireSameTrace(t, bc, traceRun(t, s, prog, cfg, input, args, engines[1]))
	return bc
}

// TestEngineDifferentialTraces extends the engine-differential suite to
// the execution trace itself: every security case study must produce a
// byte-identical trace on the bytecode and reference engines — not
// merely the same outputs and stats, but the same runtime events in the
// same order with the same resolved offsets. Observed runs are held to
// it too: with the instruction log attached the bytecode trace must not
// change, and a taint run (no inline-cache hits) must trace exactly as
// a reference taint run.
func TestEngineDifferentialTraces(t *testing.T) {
	for _, cs := range exploit.CaseStudies() {
		cs := cs
		t.Run(cs.Name, func(t *testing.T) {
			s := harden(t, cs.Build(), nil)
			cfg := core.DefaultConfig(99)
			cfg.Policy = core.PolicyWarn
			bc := traceBoth(t, s, s.prog, cfg, nil, cs.AttackArgs)
			var log strings.Builder
			requireSameTrace(t, traceRun(t, s, s.prog, cfg, nil, cs.AttackArgs, engines[0], vm.WithTrace(&log, 0)), bc)
			tainted := func(e engine) []byte {
				return traceRun(t, s, s.prog, cfg, nil, cs.AttackArgs, e, vm.WithTaint(&vm.RecordingSink{}))
			}
			requireSameTrace(t, tainted(engines[0]), tainted(engines[1]))
		})
	}
}

// TestEngineDifferentialWorkloadTraces is the cross-engine trace gate
// over the whole workload catalog: every app hardened, under one task
// seed per cell, must trace byte-identically on both engines in
// metadata mode and in stateless mode with a rekey every 64 frees (so
// the epoch-advance and live-object remap paths run too). Each cell is
// a subtest (metadata, stateless-rekey-64) with one subtest per app.
func TestEngineDifferentialWorkloadTraces(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload catalog; covered by the CI trace job")
	}
	const seed = 11
	cells := []struct {
		name string
		run  func(t *testing.T, s hardenedSetup, w *workload.Workload)
	}{
		{"metadata", func(t *testing.T, s hardenedSetup, w *workload.Workload) {
			cfg := core.DefaultConfig(evalrun.TaskSeed(seed, "traces/"+w.Name))
			bc := traceBoth(t, s, s.prog, cfg, w.Input, w.Args)
			tr, err := exectrace.Read(bytes.NewReader(bc))
			if err != nil {
				t.Fatal(err)
			}
			if tr.Count == 0 {
				t.Fatal("empty trace")
			}
		}},
		{"stateless-rekey-64", func(t *testing.T, s hardenedSetup, w *workload.Workload) {
			cfg := core.DefaultConfig(evalrun.TaskSeed(seed, "traces/stateless/"+w.Name))
			cfg.LayoutMode = core.LayoutModeStateless
			cfg.RekeyEvery = 64
			traceBoth(t, s, s.prog, cfg, w.Input, w.Args)
		}},
	}
	for _, c := range cells {
		c := c
		t.Run(c.name, func(t *testing.T) {
			for _, w := range workload.All() {
				w := w
				t.Run(w.Name, func(t *testing.T) {
					t.Parallel()
					c.run(t, harden(t, w.Module, nil), w)
				})
			}
		})
	}
}
