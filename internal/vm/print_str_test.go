package vm_test

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"polar/internal/fuzz"
	"polar/internal/ir"
	"polar/internal/taint"
	"polar/internal/vm"
)

// TestPrintStrHugeLength: a print_str whose length is near MaxInt64
// fails with ErrOutputLimit on both engines, before the output log
// grows, and a fuzz campaign and a TaintClass analysis over it finish.
// The call once staged the whole length in Go memory, which panicked
// the process ("makeslice: len out of range").
func TestPrintStrHugeLength(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "print_str_huge.ir"))
	if err != nil {
		t.Fatal(err)
	}
	m, err := ir.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	in := []byte("01234567")
	for _, e := range engines {
		v, err := vm.New(m, vm.WithInput(in))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.run(v); !errors.Is(err, vm.ErrOutputLimit) {
			t.Fatalf("%s: err = %v, want ErrOutputLimit", e.name, err)
		}
		if out := v.Output(); len(out) != 0 {
			t.Fatalf("%s: the failed call left %d bytes of output", e.name, len(out))
		}
	}
	res, err := fuzz.Run(m, [][]byte{in}, fuzz.Config{Iterations: 20, MaxInputLen: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Crashers) == 0 {
		t.Fatal("the campaign recorded no crasher")
	}
	if _, err := taint.Analyze(m, [][]byte{in}, taint.RunOptions{IgnoreRunErrors: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := taint.Analyze(m, [][]byte{in}, taint.RunOptions{}); !errors.Is(err, vm.ErrOutputLimit) {
		t.Fatalf("taint.Analyze: err = %v, want ErrOutputLimit", err)
	}
}
