package vm_test

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"polar"
	"polar/internal/core"
	"polar/internal/fuzz"
	"polar/internal/heap"
	"polar/internal/instrument"
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

// accessModules are the programs loading a type the engines do not
// read whole: a 16-byte struct and a 3-byte array.
var accessModules = []string{"load_struct.ir", "load_odd.ir"}

// TestAccessTypeLimit: each access program fails with ir.ErrAccessType
// from vm.Compile, so neither engine runs it, and from the
// instrumentation pass, fuzz.Run and taint.Analyze. The struct load
// used to panic the process, and the engines disagreed on the 3-byte
// load.
func TestAccessTypeLimit(t *testing.T) {
	for _, name := range accessModules {
		m := parseTestdata(t, name)
		for _, e := range engines {
			v, err := vm.New(m)
			if err == nil {
				_, err = e.run(v)
			}
			if !errors.Is(err, ir.ErrAccessType) || !strings.Contains(err.Error(), "@main.entry: ") {
				t.Fatalf("%s %s: err = %v, want ErrAccessType at @main.entry", name, e.name, err)
			}
		}
		if _, err := instrument.Apply(ir.Clone(m), nil); !errors.Is(err, ir.ErrAccessType) {
			t.Fatalf("%s: instrument.Apply: err = %v, want ErrAccessType", name, err)
		}
		if _, err := fuzz.Run(m, [][]byte{{1}}, fuzz.Config{Iterations: 5, MaxInputLen: 4, Seed: 1}); !errors.Is(err, ir.ErrAccessType) {
			t.Fatalf("%s: fuzz.Run: err = %v, want ErrAccessType", name, err)
		}
		if _, err := taint.Analyze(m, [][]byte{{1}}, taint.RunOptions{IgnoreRunErrors: true}); !errors.Is(err, ir.ErrAccessType) {
			t.Fatalf("%s: taint.Analyze: err = %v, want ErrAccessType", name, err)
		}
	}
}

// TestAllocSizeWrap: an alloc of 2^61+1 8-byte elements, whose byte
// size wraps to 8, fails with heap.ErrOutOfMemory on both engines, in
// plain, taint and hardened runs, before the heap carves a chunk; a
// fuzz campaign records it as a crasher and a TaintClass analysis fails
// with it. Both engines used to carve 16 bytes and let the program
// write 8 MB past them.
func TestAllocSizeWrap(t *testing.T) {
	m := parseTestdata(t, "alloc_wrap.ir")
	prog, err := vm.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	hard := harden(t, m, nil)
	for _, e := range engines {
		hv, _ := hard.instance(t, core.DefaultConfig(1))
		for _, run := range []struct {
			name string
			v    *vm.VM
		}{
			{"plain", mustInstance(t, prog)},
			{"taint", mustInstance(t, prog, vm.WithTaint(taint.NewReport()))},
			{"hardened", hv},
		} {
			if _, err := e.run(run.v); !errors.Is(err, heap.ErrOutOfMemory) || !strings.HasPrefix(err.Error(), "@main.entry: ") {
				t.Fatalf("%s %s: err = %v, want ErrOutOfMemory at @main.entry", run.name, e.name, err)
			}
			if n := run.v.Heap.Stats().Allocs; n != 0 {
				t.Fatalf("%s %s: the failed alloc carved %d chunks", run.name, e.name, n)
			}
		}
	}
	res, err := fuzz.Run(m, [][]byte{{1}}, fuzz.Config{Iterations: 5, MaxInputLen: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Crashers) == 0 {
		t.Fatal("the campaign recorded no crasher")
	}
	if _, err := taint.Analyze(m, [][]byte{{1}}, taint.RunOptions{}); !errors.Is(err, heap.ErrOutOfMemory) {
		t.Fatalf("taint.Analyze: err = %v, want ErrOutOfMemory", err)
	}
}

// shapeBase holds one instruction of every op TestOperandShapes
// breaks.
const shapeBase = `module "shape"

struct %S { i64 a; }

func @main() i64 {
entry:
  %r0 = alloc %S
  %r1 = local i64
  store i64 7, %r1
  memset %r1, 0, 8
  %r2 = elemptr i64, %r1, 0
  %r3 = add 1, 2
  %r4 = lt %r3, 5
  %r5 = mov %r3
  memcpy %r1, %r2, 8
  free %r0
  condbr %r4, a, b
a:
  br b
b:
  ret %r5
}
`

// TestOperandShapes: shapeBase broken in one instruction, as a module
// built in Go can be (an instruction short of the operands, branch
// targets, type or destination its op needs, or carrying a destination
// on an op that defines no register), fails with ir.ErrOperands from
// ir.Validate, vm.Compile, the instrumentation pass (blaming its
// input), fuzz.Run, taint.Analyze and polar.Run, and none of them
// panics. Each short shape used to pass validation and panic the
// lowering or the run with an index out of range or a nil dereference;
// a destination on a store used to split the engines (register
// allocation took it for a definition).
func TestOperandShapes(t *testing.T) {
	base, err := ir.Parse(shapeBase)
	if err != nil {
		t.Fatal(err)
	}
	if err := ir.Validate(base); err != nil {
		t.Fatalf("the unbroken module: %v", err)
	}
	for _, tc := range []struct {
		name string
		op   ir.Op
		edit func(in *ir.Instr)
	}{
		{"bin without operands", ir.OpBin, func(in *ir.Instr) { in.Args = nil }},
		{"cmp with one operand", ir.OpCmp, func(in *ir.Instr) { in.Args = in.Args[:1] }},
		{"mov without operand", ir.OpMov, func(in *ir.Instr) { in.Args = nil }},
		{"free without operand", ir.OpFree, func(in *ir.Instr) { in.Args = nil }},
		{"memcpy with one operand", ir.OpMemcpy, func(in *ir.Instr) { in.Args = in.Args[:1] }},
		{"alloc without type", ir.OpAlloc, func(in *ir.Instr) { in.Type = nil }},
		{"local without type", ir.OpLocal, func(in *ir.Instr) { in.Type = nil }},
		{"elemptr without type", ir.OpElemPtr, func(in *ir.Instr) { in.Type = nil }},
		{"condbr with one target", ir.OpCondBr, func(in *ir.Instr) { in.Blocks = in.Blocks[:1] }},
		{"br without target", ir.OpBr, func(in *ir.Instr) { in.Blocks = nil }},
		{"bin without destination", ir.OpBin, func(in *ir.Instr) { in.Dest = -1 }},
		{"store with destination", ir.OpStore, func(in *ir.Instr) { in.Dest = 5 }},
		{"memcpy with destination", ir.OpMemcpy, func(in *ir.Instr) { in.Dest = 5 }},
		{"memset with destination", ir.OpMemset, func(in *ir.Instr) { in.Dest = 5 }},
		{"free with destination", ir.OpFree, func(in *ir.Instr) { in.Dest = 5 }},
		{"condbr with destination", ir.OpCondBr, func(in *ir.Instr) { in.Dest = 5 }},
		{"br with destination", ir.OpBr, func(in *ir.Instr) { in.Dest = 5 }},
		{"ret with destination", ir.OpRet, func(in *ir.Instr) { in.Dest = 5 }},
	} {
		m := ir.Clone(base)
	find:
		for _, blk := range m.Func("main").Blocks {
			for ii := range blk.Instrs {
				if blk.Instrs[ii].Op == tc.op {
					tc.edit(&blk.Instrs[ii])
					break find
				}
			}
		}
		if err := ir.Validate(m); !errors.Is(err, ir.ErrOperands) {
			t.Errorf("%s: ir.Validate: err = %v, want ErrOperands", tc.name, err)
		}
		if _, err := vm.Compile(m); !errors.Is(err, ir.ErrOperands) {
			t.Errorf("%s: vm.Compile: err = %v, want ErrOperands", tc.name, err)
		}
		if _, err := instrument.Apply(ir.Clone(m), nil); !errors.Is(err, ir.ErrOperands) || !strings.HasPrefix(err.Error(), "instrument: invalid input module: ") {
			t.Errorf("%s: instrument.Apply: err = %v, want ErrOperands blamed on the input", tc.name, err)
		}
		if _, err := fuzz.Run(m, [][]byte{{1}}, fuzz.Config{Iterations: 5, MaxInputLen: 4, Seed: 1}); !errors.Is(err, ir.ErrOperands) {
			t.Errorf("%s: fuzz.Run: err = %v, want ErrOperands", tc.name, err)
		}
		if _, err := taint.Analyze(m, [][]byte{{1}}, taint.RunOptions{IgnoreRunErrors: true}); !errors.Is(err, ir.ErrOperands) {
			t.Errorf("%s: taint.Analyze: err = %v, want ErrOperands", tc.name, err)
		}
		if _, err := polar.Run(m); !errors.Is(err, ir.ErrOperands) {
			t.Errorf("%s: polar.Run: err = %v, want ErrOperands", tc.name, err)
		}
	}
}

// parseTestdata parses testdata/name.
func parseTestdata(t *testing.T, name string) *ir.Module {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	m, err := ir.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// mustInstance stamps an instance of prog.
func mustInstance(t *testing.T, prog *vm.Program, opts ...vm.Option) *vm.VM {
	t.Helper()
	v, err := prog.NewInstance(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return v
}
