package vm_test

import (
	"reflect"
	"testing"

	"polar/internal/exploit"
	"polar/internal/ir"
	"polar/internal/taint"
	"polar/internal/vm"
	"polar/internal/workload"
)

// checkTaintParity runs TaintClass over one input twice — through the
// shipped taint.AnalyzeOne, whose hooked instance runs the bytecode
// engine, and on a hooked instance of prog run by the reference
// tree-walker, run errors tolerated as taint.RunOptions.IgnoreRunErrors
// does — and requires identical reports.
func checkTaintParity(t *testing.T, name string, prog *vm.Program, input []byte, fuel uint64, args ...int64) {
	t.Helper()
	shipped, err := taint.AnalyzeOne(prog.Module(), input, taint.RunOptions{IgnoreRunErrors: true, Fuel: fuel, Args: args})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	ref := taint.NewReport()
	eng := taint.NewEngine(ref)
	v, err := prog.NewInstance(vm.WithInput(input), vm.WithHooks(eng), vm.WithFuel(fuel))
	if err != nil {
		t.Fatal(err)
	}
	eng.Bind(v)
	_, _ = vm.RunReference(v, args...)
	if !reflect.DeepEqual(shipped, ref) {
		t.Errorf("%s: taint reports differ across engines:\nbytecode:\n%s\nreference:\n%s", name, shipped, ref)
	}
}

// TestTaintReportsEngineParity: TaintClass, the shipped user of Hooks,
// reports identically on the bytecode engine's observed runs and on the
// reference tree-walker for every workload's canonical input (at Table
// I's fuel) and every case study's attack input.
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
	for _, cs := range exploit.CaseStudies() {
		prog, err := vm.Compile(cs.Build())
		if err != nil {
			t.Fatal(err)
		}
		checkTaintParity(t, cs.Name, prog, nil, 30_000_000, cs.AttackArgs...)
	}
}
