package vm_test

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"polar/internal/fuzz"
	"polar/internal/ir"
	"polar/internal/taint"
	"polar/internal/vm"
)

// TestRegisterNumberLimit: a module naming %r400000000 fails with
// ir.ErrTooManyRegs from the parser (naming the line) and, built in Go,
// from vm.Compile, fuzz.Run and taint.Analyze. Validation used to size
// its def-use tables by the register number and run Go out of memory.
func TestRegisterNumberLimit(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "reg_huge.ir"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ir.Parse(string(src)); !errors.Is(err, ir.ErrTooManyRegs) || !strings.Contains(err.Error(), "line 8") {
		t.Fatalf("Parse: err = %v, want ErrTooManyRegs at line 8", err)
	}
	// The same module built in Go: parse it naming %r1, then rename.
	const huge = 400_000_000
	m, err := ir.Parse(strings.ReplaceAll(string(src), "%r400000000", "%r1"))
	if err != nil {
		t.Fatal(err)
	}
	f := m.Func("main")
	f.NumRegs = huge + 1
	for _, blk := range f.Blocks {
		for ii := range blk.Instrs {
			in := &blk.Instrs[ii]
			if in.Dest == 1 {
				in.Dest = huge
			}
			for ai := range in.Args {
				if in.Args[ai].Kind == ir.ValReg && in.Args[ai].Reg == 1 {
					in.Args[ai].Reg = huge
				}
			}
		}
	}
	if _, err := vm.Compile(m); !errors.Is(err, ir.ErrTooManyRegs) {
		t.Fatalf("vm.Compile: err = %v, want ErrTooManyRegs", err)
	}
	if _, err := fuzz.Run(m, [][]byte{{1}}, fuzz.Config{Iterations: 5, MaxInputLen: 4, Seed: 1}); !errors.Is(err, ir.ErrTooManyRegs) {
		t.Fatalf("fuzz.Run: err = %v, want ErrTooManyRegs", err)
	}
	if _, err := taint.Analyze(m, [][]byte{{1}}, taint.RunOptions{IgnoreRunErrors: true}); !errors.Is(err, ir.ErrTooManyRegs) {
		t.Fatalf("taint.Analyze: err = %v, want ErrTooManyRegs", err)
	}
}

// sizeModules are the programs naming a type whose size no mapped
// region holds: a 4.8 GB local and alloc, an elemptr over 4.8 GB
// elements, a struct holding a 2.4 GB array, and an array whose size
// wraps to 0.
var sizeModules = []string{"size_local.ir", "size_alloc.ir", "size_elemptr.ir", "size_struct.ir", "size_wrap.ir"}

// TestTypeSizeLimit: each size program fails with vm.ErrLength before
// it is lowered, so neither engine runs it, and fuzz.Run and
// taint.Analyze fail with it too. The lowering used to narrow the sizes
// to int32, and the engines disagreed on the result.
func TestTypeSizeLimit(t *testing.T) {
	for _, name := range sizeModules {
		src, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		m, err := ir.Parse(string(src))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range engines {
			v, err := vm.New(m)
			if err == nil {
				_, err = e.run(v)
			}
			if !errors.Is(err, vm.ErrLength) || !strings.HasPrefix(err.Error(), "@main.entry: ") {
				t.Fatalf("%s %s: err = %v, want ErrLength at @main.entry", name, e.name, err)
			}
		}
		if _, err := fuzz.Run(m, [][]byte{{1}}, fuzz.Config{Iterations: 5, MaxInputLen: 4, Seed: 1}); !errors.Is(err, vm.ErrLength) {
			t.Fatalf("%s: fuzz.Run: err = %v, want ErrLength", name, err)
		}
		if _, err := taint.Analyze(m, [][]byte{{1}}, taint.RunOptions{IgnoreRunErrors: true}); !errors.Is(err, vm.ErrLength) {
			t.Fatalf("%s: taint.Analyze: err = %v, want ErrLength", name, err)
		}
	}
}
