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

// TestMemHugeLength: a memcpy whose length is near MaxInt64 and a
// non-zero memset of 64 GiB fail with ErrLength on both engines, in
// plain and taint runs, before any page of simulated memory exists, and
// a fuzz campaign and a TaintClass analysis over each finish. The
// memcpy once panicked the process ("makeslice: len out of range"), and
// the memset ran Go out of memory.
func TestMemHugeLength(t *testing.T) {
	for _, name := range []string{"memcpy_huge.ir", "memset_huge.ir"} {
		src, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		m, err := ir.Parse(string(src))
		if err != nil {
			t.Fatal(err)
		}
		in := []byte("01234567")
		for _, e := range engines {
			for _, opts := range [][]vm.Option{
				{vm.WithInput(in)},
				{vm.WithInput(in), vm.WithTaint(taint.NewReport())},
			} {
				v, err := vm.New(m, opts...)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := e.run(v); !errors.Is(err, vm.ErrLength) {
					t.Fatalf("%s %s (%d options): err = %v, want ErrLength", name, e.name, len(opts), err)
				}
				if n := v.Mem.Pages(); n != 0 {
					t.Fatalf("%s %s: the failed call left %d pages", name, e.name, n)
				}
			}
		}
		res, err := fuzz.Run(m, [][]byte{in}, fuzz.Config{Iterations: 20, MaxInputLen: 16, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Crashers) == 0 {
			t.Fatalf("%s: the campaign recorded no crasher", name)
		}
		if _, err := taint.Analyze(m, [][]byte{in}, taint.RunOptions{IgnoreRunErrors: true}); err != nil {
			t.Fatal(err)
		}
		if _, err := taint.Analyze(m, [][]byte{in}, taint.RunOptions{}); !errors.Is(err, vm.ErrLength) {
			t.Fatalf("%s: taint.Analyze: err = %v, want ErrLength", name, err)
		}
	}
}
