package vm_test

import (
	"fmt"
	"hash"
	"hash/fnv"
	"reflect"
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
