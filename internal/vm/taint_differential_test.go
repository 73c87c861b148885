package vm_test

import (
	"fmt"
	"hash"
	"hash/fnv"
	"reflect"
	"strings"
	"testing"

	"polar/internal/exploit"
	"polar/internal/ir"
	"polar/internal/taint"
	"polar/internal/vm"
	"polar/internal/workload"
)

// digestSink is a taint sink that fills a Report and digests every
// call it receives, so two runs' sink calls compare call for call
// without keeping them.
type digestSink struct {
	*taint.Report
	h     hash.Hash64
	calls int
}

func newDigestSink() *digestSink { return &digestSink{Report: taint.NewReport(), h: fnv.New64a()} }

func (s *digestSink) Content(st *ir.StructType, off, n int) {
	s.Report.Content(st, off, n)
	fmt.Fprintf(s.h, "content %s %d %d\n", st.Name, off, n)
	s.calls++
}

func (s *digestSink) Alloc(st *ir.StructType) {
	s.Report.Alloc(st)
	fmt.Fprintf(s.h, "alloc %s\n", st.Name)
	s.calls++
}

func (s *digestSink) Free(st *ir.StructType) {
	s.Report.Free(st)
	fmt.Fprintf(s.h, "free %s\n", st.Name)
	s.calls++
}

// checkTaintParity runs TaintClass over one input on both engines — the
// bytecode engine propagates labels inline, the reference tree-walker
// independently — with run errors tolerated as
// taint.RunOptions.IgnoreRunErrors does. The two runs must make the
// same sink calls in the same order, and the shipped taint.AnalyzeOne
// must report what the reference run reports.
func checkTaintParity(t *testing.T, name string, prog *vm.Program, input []byte, fuel uint64, args ...int64) {
	t.Helper()
	shipped, err := taint.AnalyzeOne(prog.Module(), input, taint.RunOptions{IgnoreRunErrors: true, Fuel: fuel, Args: args})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var sinks [2]*digestSink
	for i, run := range []func(*vm.VM, ...int64) (int64, error){(*vm.VM).Run, vm.RunReference} {
		sinks[i] = newDigestSink()
		v, err := prog.NewInstance(vm.WithInput(input), vm.WithTaint(sinks[i]), vm.WithFuel(fuel))
		if err != nil {
			t.Fatal(err)
		}
		_, _ = run(v, args...)
	}
	if bc, ref := sinks[0], sinks[1]; bc.calls != ref.calls || bc.h.Sum64() != ref.h.Sum64() {
		t.Errorf("%s: sink calls differ across engines: bytecode %d (digest %x), reference %d (digest %x)",
			name, bc.calls, bc.h.Sum64(), ref.calls, ref.h.Sum64())
	}
	if !reflect.DeepEqual(shipped, sinks[1].Report) {
		t.Errorf("%s: taint reports differ across engines:\nbytecode:\n%s\nreference:\n%s", name, shipped, sinks[1].Report)
	}
}

// TestTaintReportsEngineParity: TaintClass reports identically on the
// bytecode engine's taint runs and on the reference tree-walker's for
// every workload's canonical input (at Table I's fuel), Table IV's six
// libpng CVE inputs, whose crashes and overflows reach paths the
// canonical inputs never do, and every case study's attack input.
func TestTaintReportsEngineParity(t *testing.T) {
	for _, w := range workload.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			prog, err := vm.Compile(ir.Clone(w.Module))
			if err != nil {
				t.Fatal(err)
			}
			checkTaintParity(t, w.Name, prog, w.Input, 60_000_000, w.Args...)
		})
	}
	png, err := vm.Compile(ir.Clone(workload.LibPNG().Module))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range workload.LibPNGCVECases() {
		c := c
		t.Run("CVE-"+c.CVE, func(t *testing.T) {
			t.Parallel()
			// Table IV's settings.
			checkTaintParity(t, "CVE-"+c.CVE, png, c.Input, 30_000_000)
		})
	}
	for _, cs := range exploit.CaseStudies() {
		prog, err := vm.Compile(cs.Build())
		if err != nil {
			t.Fatal(err)
		}
		checkTaintParity(t, cs.Name, prog, nil, 30_000_000, cs.AttackArgs...)
	}
}

// observedRun is what an observed run exposes: result, error text,
// Stats, the sink's calls and the instruction log.
type observedRun struct {
	Ret   int64
	Err   string
	Stats vm.Stats
	Sink  []string
	Log   string
}

// TestTaintGenerated holds taint runs with the instruction log attached
// to the reference on 200 generated programs: genCacheModule's, with
// the running sum seeded from input_byte, so its loads, stores and
// arithmetic carry labels into typed objects. Both engines must make
// the same sink calls, write the same log and end with the same result,
// error and Stats at full fuel and at cut points spread over the run.
func TestTaintGenerated(t *testing.T) {
	input := []byte{5}
	// run executes prog on e; fuel 0 runs it at the default fuel.
	run := func(prog *vm.Program, e engine, fuel uint64) observedRun {
		sink := &vm.RecordingSink{}
		var log strings.Builder
		opts := []vm.Option{vm.WithInput(input), vm.WithTaint(sink), vm.WithTrace(&log, 0)}
		if fuel > 0 {
			opts = append(opts, vm.WithFuel(fuel))
		}
		v, err := prog.NewInstance(opts...)
		if err != nil {
			t.Fatal(err)
		}
		ret, err := e.run(v)
		out := observedRun{Ret: ret, Stats: v.Stats, Sink: sink.Log, Log: log.String()}
		if err != nil {
			out.Err = err.Error()
		}
		return out
	}
	reported := 0
	for seed := int64(1); seed <= 200; seed++ {
		prog, err := vm.Compile(genCacheModule(seed, true))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		full := run(prog, engines[1], 0)
		if full.Err != "" {
			t.Fatalf("seed %d: %s", seed, full.Err)
		}
		if len(full.Sink) > 0 {
			reported++
		}
		if bc := run(prog, engines[0], 0); !reflect.DeepEqual(bc, full) {
			t.Fatalf("seed %d: taint runs differ:\nbytecode  %+v\nreference %+v", seed, bc, full)
		}
		n := full.Stats.Instructions
		for _, fuel := range []uint64{1, n / 5, n / 2, n - n/7, n - 1} {
			if bc, ref := run(prog, engines[0], fuel), run(prog, engines[1], fuel); !reflect.DeepEqual(bc, ref) {
				t.Fatalf("seed %d fuel %d: taint runs differ:\nbytecode  %+v\nreference %+v", seed, fuel, bc, ref)
			}
		}
	}
	t.Logf("%d of 200 generated programs made a sink call", reported)
	if reported < 100 {
		t.Fatalf("only %d of 200 generated programs made a sink call", reported)
	}
}
