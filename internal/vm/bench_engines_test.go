package vm_test

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"polar/internal/ir"
	"polar/internal/vm"
	"polar/internal/workload"
)

// Engine benchmark pair: the same compiled program executed on the
// tree-walking reference engine and on the bytecode engine. 429.mcf is
// the member-access-bound app — the dispatch-dominated profile the
// bytecode engine targets.
//
// TestEngineSpeedup (run with POLAR_BENCH_ENGINES=1, as CI does) records
// the pair in the repository root's BENCH_interp.json and enforces the
// ≥2.2× contract.

func enginePair(b *testing.B) (*vm.Program, *workload.Workload) {
	b.Helper()
	w, err := workload.ByName("429.mcf")
	if err != nil {
		b.Fatal(err)
	}
	prog, err := vm.Compile(ir.Clone(w.Module))
	if err != nil {
		b.Fatal(err)
	}
	return prog, w
}

func benchEngine(b *testing.B, e engine) {
	prog, w := enginePair(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := prog.NewInstance(vm.WithInput(w.Input))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.run(v, w.Args...); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngines(b *testing.B) {
	for _, e := range engines {
		e := e
		b.Run(e.name, func(b *testing.B) { benchEngine(b, e) })
	}
}

// benchRecord is one benchstat-style row of BENCH_interp.json.
type benchRecord struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	Iterations  int     `json:"iterations"`
}

// TestEngineSpeedup measures both engines under the testing.Benchmark
// harness, writes BENCH_interp.json at the repository root, and fails
// unless the bytecode engine is at least 2.2× faster than the
// tree-walker (the fused lowering and its call-free kernel hold
// ~3.6-4.4× here; the floor leaves headroom for loaded CI machines).
// Gated behind POLAR_BENCH_ENGINES because it is a timing test:
// meaningless under -race or on a loaded machine.
func TestEngineSpeedup(t *testing.T) {
	if os.Getenv("POLAR_BENCH_ENGINES") == "" {
		t.Skip("set POLAR_BENCH_ENGINES=1 to run the engine speedup gate")
	}
	measure := func(e engine) testing.BenchmarkResult {
		return testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			benchEngine(b, e)
		})
	}
	reference := measure(engines[1])
	bytecode := measure(engines[0])
	speedup := float64(reference.NsPerOp()) / float64(bytecode.NsPerOp())

	report := struct {
		Benchmarks []benchRecord `json:"benchmarks"`
		Speedup    float64       `json:"speedup_bytecode_vs_reference"`
	}{
		Benchmarks: []benchRecord{
			{"BenchmarkEngines/reference", float64(reference.NsPerOp()), reference.AllocsPerOp(), reference.N},
			{"BenchmarkEngines/bytecode", float64(bytecode.NsPerOp()), bytecode.AllocsPerOp(), bytecode.N},
		},
		Speedup: speedup,
	}
	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("../../BENCH_interp.json", append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("reference %v/op, bytecode %v/op, speedup %.2fx",
		reference.NsPerOp(), bytecode.NsPerOp(), speedup)
	fmt.Printf("engine speedup: %.2fx (reference %d ns/op, bytecode %d ns/op)\n",
		speedup, reference.NsPerOp(), bytecode.NsPerOp())
	if speedup < 2.2 {
		t.Fatalf("bytecode engine %.2fx faster than the reference, want >= 2.2x", speedup)
	}
}
