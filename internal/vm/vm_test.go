package vm

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"polar/internal/ir"
)

func mustVM(t *testing.T, m *ir.Module, opts ...Option) *VM {
	t.Helper()
	v, err := New(m, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestArithmetic(t *testing.T) {
	cases := []struct {
		op   ir.BinKind
		a, b int64
		want int64
	}{
		{ir.BinAdd, 7, 5, 12},
		{ir.BinSub, 7, 5, 2},
		{ir.BinMul, -3, 5, -15},
		{ir.BinDiv, 17, 5, 3},
		{ir.BinRem, 17, 5, 2},
		{ir.BinAnd, 0b1100, 0b1010, 0b1000},
		{ir.BinOr, 0b1100, 0b1010, 0b1110},
		{ir.BinXor, 0b1100, 0b1010, 0b0110},
		{ir.BinShl, 3, 4, 48},
		{ir.BinShr, -8, 1, int64(uint64(0xFFFFFFFFFFFFFFF8) >> 1)},
	}
	for _, tc := range cases {
		m := ir.NewModule("arith")
		b := ir.NewFunc(m, "main", ir.I64)
		r := b.Bin(tc.op, ir.Const(tc.a), ir.Const(tc.b))
		b.Ret(r)
		got, err := mustVM(t, m).Run()
		if err != nil {
			t.Fatalf("%v: %v", tc.op, err)
		}
		if got != tc.want {
			t.Errorf("%d %v %d = %d, want %d", tc.a, tc.op, tc.b, got, tc.want)
		}
	}
}

func TestDivByZeroFaults(t *testing.T) {
	m := ir.NewModule("div0")
	b := ir.NewFunc(m, "main", ir.I64)
	r := b.Bin(ir.BinDiv, ir.Const(1), ir.Const(0))
	b.Ret(r)
	if _, err := mustVM(t, m).Run(); !errors.Is(err, ErrDivByZero) {
		t.Fatalf("want ErrDivByZero, got %v", err)
	}
}

func TestFloatOpsAndConversion(t *testing.T) {
	m := ir.NewModule("float")
	b := ir.NewFunc(m, "main", ir.I64)
	x := b.ItoF(ir.Const(7))
	y := b.FBin(ir.BinDiv, x, ir.ConstF(2.0))
	z := b.FBin(ir.BinMul, y, ir.ConstF(1000))
	b.Ret(b.FtoI(z))
	got, err := mustVM(t, m).Run()
	if err != nil {
		t.Fatal(err)
	}
	if got != 3500 {
		t.Fatalf("got %d, want 3500", got)
	}
}

func TestLoadStoreSignExtension(t *testing.T) {
	m := ir.NewModule("sext")
	b := ir.NewFunc(m, "main", ir.I64)
	slot := b.Local(ir.I64)
	b.Store(ir.I8, ir.Const(-1), slot)
	v8 := b.Load(ir.I8, slot)
	b.Store(ir.I32, ir.Const(-2), slot)
	v32 := b.Load(ir.I32, slot)
	b.Ret(b.Bin(ir.BinAdd, v8, v32))
	got, err := mustVM(t, m).Run()
	if err != nil {
		t.Fatal(err)
	}
	if got != -3 {
		t.Fatalf("sign extension broken: got %d, want -3", got)
	}
}

func TestNullDereferenceFaults(t *testing.T) {
	m := ir.NewModule("null")
	b := ir.NewFunc(m, "main", ir.I64)
	v := b.Load(ir.I64, ir.Const(8))
	b.Ret(v)
	if _, err := mustVM(t, m).Run(); !errors.Is(err, ErrNullDeref) {
		t.Fatalf("want ErrNullDeref, got %v", err)
	}
}

func TestGlobalsInitialized(t *testing.T) {
	m := ir.NewModule("glob")
	if _, err := m.AddGlobal("g", 16, []byte{0x34, 0x12}); err != nil {
		t.Fatal(err)
	}
	b := ir.NewFunc(m, "main", ir.I64)
	v := b.Load(ir.I16, ir.Global("g"))
	b.Ret(v)
	got, err := mustVM(t, m).Run()
	if err != nil {
		t.Fatal(err)
	}
	if got != 0x1234 {
		t.Fatalf("global init read %#x, want 0x1234", got)
	}
}

func TestCallsArgsAndReturn(t *testing.T) {
	m := ir.NewModule("calls")
	fb := ir.NewFunc(m, "fib", ir.I64, ir.Param{Name: "n", Type: ir.I64})
	n := fb.ParamReg(0)
	small := fb.Cmp(ir.CmpLt, n, ir.Const(2))
	fb.If("base", small, func() { fb.Ret(n) }, nil)
	a := fb.Call("fib", fb.Bin(ir.BinSub, n, ir.Const(1)))
	b2 := fb.Call("fib", fb.Bin(ir.BinSub, n, ir.Const(2)))
	fb.Ret(fb.Bin(ir.BinAdd, a, b2))

	b := ir.NewFunc(m, "main", ir.I64)
	b.Ret(b.Call("fib", ir.Const(15)))
	got, err := mustVM(t, m).Run()
	if err != nil {
		t.Fatal(err)
	}
	if got != 610 {
		t.Fatalf("fib(15) = %d, want 610", got)
	}
}

func TestStackOverflowCaught(t *testing.T) {
	m := ir.NewModule("deep")
	fb := ir.NewFunc(m, "down", ir.I64, ir.Param{Name: "n", Type: ir.I64})
	fb.Ret(fb.Call("down", fb.Bin(ir.BinAdd, fb.ParamReg(0), ir.Const(1))))
	b := ir.NewFunc(m, "main", ir.I64)
	b.Ret(b.Call("down", ir.Const(0)))
	if _, err := mustVM(t, m).Run(); !errors.Is(err, ErrStackOverflow) {
		t.Fatalf("want ErrStackOverflow, got %v", err)
	}
}

func TestFuelExhaustion(t *testing.T) {
	m := ir.NewModule("spin")
	b := ir.NewFunc(m, "main", ir.I64)
	b.Br("loop")
	b.Block("loop")
	b.Br("loop")
	v := mustVM(t, m, WithFuel(10_000))
	if _, err := v.Run(); !errors.Is(err, ErrFuelExhausted) {
		t.Fatalf("want ErrFuelExhausted, got %v", err)
	}
}

func TestInputBuiltins(t *testing.T) {
	m := ir.NewModule("input")
	if _, err := m.AddGlobal("buf", 32, nil); err != nil {
		t.Fatal(err)
	}
	b := ir.NewFunc(m, "main", ir.I64)
	n := b.Call("input_len")
	got := b.Call("input_read", ir.Global("buf"), ir.Const(1), ir.Const(2))
	first := b.Load(ir.I8, ir.Global("buf"))
	oob := b.Call("input_byte", ir.Const(99))
	sum := b.Bin(ir.BinAdd, b.Bin(ir.BinMul, n, ir.Const(1000)), b.Bin(ir.BinMul, got, ir.Const(100)))
	sum = b.Bin(ir.BinAdd, sum, first)
	sum = b.Bin(ir.BinAdd, sum, b.Bin(ir.BinMul, oob, ir.Const(10000)))
	b.Ret(sum)
	v := mustVM(t, m, WithInput([]byte{10, 20, 30}))
	res, err := v.Run()
	if err != nil {
		t.Fatal(err)
	}
	// n=3, copied=2 (bytes 20,30), first=20, oob=-1.
	want := int64(3*1000 + 2*100 + 20 - 10000)
	if res != want {
		t.Fatalf("got %d, want %d", res, want)
	}
}

func TestPrintBuiltins(t *testing.T) {
	m := ir.NewModule("print")
	if _, err := m.AddGlobal("s", 8, []byte("hi there")); err != nil {
		t.Fatal(err)
	}
	b := ir.NewFunc(m, "main", ir.I64)
	b.CallVoid("print_i64", ir.Const(42))
	b.CallVoid("print_f64", ir.ConstF(2.5))
	b.CallVoid("print_str", ir.Global("s"), ir.Const(8))
	b.Ret(ir.Const(0))
	v := mustVM(t, m)
	if _, err := v.Run(); err != nil {
		t.Fatal(err)
	}
	if out := string(v.Output()); out != "42\n2.5\nhi there" {
		t.Fatalf("output = %q", out)
	}
}

// TestOutputLimit: the print builtins fill the output log up to
// maxOutput bytes and fail with ErrOutputLimit past it, leaving the log
// as it was; a negative print_str length fails on its own.
func TestOutputLimit(t *testing.T) {
	m := ir.NewModule("limit")
	if _, err := m.AddGlobal("s", 8, nil); err != nil {
		t.Fatal(err)
	}
	b := ir.NewFunc(m, "main", ir.I64, ir.Param{Name: "n", Type: ir.I64})
	b.CallVoid("print_str", ir.Global("s"), b.ParamReg(0))
	b.CallVoid("print_i64", ir.Const(7))
	b.Ret(ir.Const(0))
	for _, tc := range []struct {
		n       int64
		wantLen int
		wantErr bool
	}{
		{maxOutput - 2, maxOutput, false},
		{maxOutput - 1, maxOutput - 1, true},
		{maxOutput + 1, 0, true},
	} {
		v := mustVM(t, m)
		_, err := v.Run(tc.n)
		if got := errors.Is(err, ErrOutputLimit); got != tc.wantErr {
			t.Fatalf("n=%d: err = %v", tc.n, err)
		}
		if len(v.Output()) != tc.wantLen {
			t.Fatalf("n=%d: output log holds %d bytes, want %d", tc.n, len(v.Output()), tc.wantLen)
		}
	}
	if _, err := mustVM(t, m).Run(-5); err == nil || !strings.Contains(err.Error(), "vm: negative length -5") {
		t.Fatalf("n=-5: err = %v, want a negative length", err)
	}
}

func TestFuncHandlesRoundTrip(t *testing.T) {
	m := ir.NewModule("fh")
	cb := ir.NewFunc(m, "callee", ir.I64)
	cb.Ret(ir.Const(5))
	b := ir.NewFunc(m, "main", ir.I64)
	slot := b.Local(ir.Fptr)
	b.Store(ir.Fptr, ir.FuncRef("callee"), slot)
	h := b.Load(ir.Fptr, slot)
	b.Ret(h)
	v := mustVM(t, m)
	hv, err := v.Run()
	if err != nil {
		t.Fatal(err)
	}
	f, ok := v.FuncByHandle(hv)
	if !ok || f.Name != "callee" {
		t.Fatalf("handle %#x resolved to %v %v", hv, f, ok)
	}
	if _, ok := v.FuncByHandle(12345); ok {
		t.Error("bogus handle resolved")
	}
}

func TestHeapAllocFreeAndObjectTracking(t *testing.T) {
	m := ir.NewModule("heap")
	st := m.MustStruct(ir.NewStruct("S", ir.Field{Name: "x", Type: ir.I64}))
	b := ir.NewFunc(m, "main", ir.I64)
	p := b.Alloc(st)
	b.Store(ir.I64, ir.Const(11), b.FieldPtr(st, p, 0))
	val := b.Load(ir.I64, b.FieldPtr(st, p, 0))
	b.Free(p)
	b.Ret(val)
	v := mustVM(t, m)
	got, err := v.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got != 11 {
		t.Fatalf("got %d", got)
	}
	if v.Stats.Allocs != 1 || v.Stats.Frees != 1 || v.Stats.FieldAccess != 2 {
		t.Fatalf("stats = %+v", v.Stats)
	}
	if v.Heap.LiveCount() != 0 {
		t.Fatal("chunk leaked")
	}
}

func TestCoverageBitmapDiffersByPath(t *testing.T) {
	m := ir.NewModule("cov")
	b := ir.NewFunc(m, "main", ir.I64, ir.Param{Name: "x", Type: ir.I64})
	c := b.Cmp(ir.CmpGt, b.ParamReg(0), ir.Const(0))
	b.If("branch", c, func() {
		b.CallVoid("print_i64", ir.Const(1))
	}, func() {
		b.CallVoid("print_i64", ir.Const(2))
	})
	b.Ret(ir.Const(0))

	edges := func(arg int64) map[int]bool {
		v := mustVM(t, ir.Clone(m), WithCoverage())
		if _, err := v.Run(arg); err != nil {
			t.Fatal(err)
		}
		set := make(map[int]bool)
		for i, c := range v.Coverage() {
			if c > 0 {
				set[i] = true
			}
		}
		return set
	}
	a, bb := edges(1), edges(-1)
	same := true
	for k := range a {
		if !bb[k] {
			same = false
		}
	}
	for k := range bb {
		if !a[k] {
			same = false
		}
	}
	if same {
		t.Fatal("different control flow produced identical coverage")
	}
}

func TestMemoryPageStraddle(t *testing.T) {
	mem := newMemory()
	// Write an 8-byte value across the 64KiB page boundary.
	addr := uint64(pageSize - 3)
	if err := mem.WriteU(addr, 8, 0x1122334455667788); err != nil {
		t.Fatal(err)
	}
	got, err := mem.ReadU(addr, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0x1122334455667788 {
		t.Fatalf("straddled read = %#x", got)
	}
	b := make([]byte, 16)
	if err := mem.ReadInto(addr-2, b); err != nil {
		t.Fatal(err)
	}
	if b[2] != 0x88 || b[9] != 0x11 {
		t.Fatalf("ReadInto straddle = %v", b)
	}
}

// TestMemoryQuick: random writes then reads return the written bytes.
func TestMemoryQuick(t *testing.T) {
	prop := func(off uint16, val uint64, n8 uint8) bool {
		n := 1 << (n8 % 4) // 1,2,4,8
		mem := newMemory()
		addr := uint64(0x10000) + uint64(off)
		if err := mem.WriteU(addr, n, val); err != nil {
			return false
		}
		got, err := mem.ReadU(addr, n)
		if err != nil {
			return false
		}
		mask := ^uint64(0)
		if n < 8 {
			mask = (1 << (8 * n)) - 1
		}
		return got == val&mask
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestMemmoveOverlap(t *testing.T) {
	m := ir.NewModule("mov")
	if _, err := m.AddGlobal("g", 64, []byte{1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
		t.Fatal(err)
	}
	b := ir.NewFunc(m, "main", ir.I64)
	// Overlapping copy forward by 2.
	dst := b.PtrAdd(ir.Global("g"), ir.Const(2))
	b.Memcpy(dst, ir.Global("g"), ir.Const(6))
	v := b.Load(ir.I8, b.PtrAdd(ir.Global("g"), ir.Const(7)))
	b.Ret(v)
	got, err := mustVM(t, m).Run()
	if err != nil {
		t.Fatal(err)
	}
	if got != 6 {
		t.Fatalf("overlapping copy: got %d, want 6 (memmove semantics)", got)
	}
}

func TestFloatBitsPreserved(t *testing.T) {
	m := ir.NewModule("fbits")
	b := ir.NewFunc(m, "main", ir.I64)
	slot := b.Local(ir.F64)
	b.Store(ir.F64, ir.ConstF(math.Pi), slot)
	v := b.Load(ir.F64, slot)
	b.Ret(v)
	got, err := mustVM(t, m).Run()
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64frombits(uint64(got)) != math.Pi {
		t.Fatalf("float round-trip = %v", math.Float64frombits(uint64(got)))
	}
}

func TestRunMissingMain(t *testing.T) {
	m := ir.NewModule("nomain")
	f := ir.NewFunc(m, "other", ir.I64)
	f.Ret(ir.Const(0))
	v := mustVM(t, m)
	if _, err := v.Run(); !errors.Is(err, ir.ErrNoMain) {
		t.Fatalf("want ErrNoMain, got %v", err)
	}
	if _, err := v.CallFunc("ghost"); !errors.Is(err, ErrUnknownFunc) {
		t.Fatalf("want ErrUnknownFunc, got %v", err)
	}
	if r, err := v.CallFunc("other"); err != nil || r != 0 {
		t.Fatalf("CallFunc(other) = %d, %v", r, err)
	}
}

func TestExecutionTracer(t *testing.T) {
	m := ir.NewModule("trace")
	b := ir.NewFunc(m, "main", ir.I64)
	x := b.Bin(ir.BinAdd, ir.Const(1), ir.Const(2))
	b.Ret(x)
	var buf strings.Builder
	v := mustVM(t, m, WithTrace(&buf, 0))
	if _, err := v.Run(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "@main.entry\t%r0 = add 1, 2") {
		t.Fatalf("trace = %q", out)
	}
	if !strings.Contains(out, "ret %r0") {
		t.Fatalf("trace missing ret: %q", out)
	}
	// Line cap respected.
	var capped strings.Builder
	v2 := mustVM(t, ir.Clone(m), WithTrace(&capped, 1))
	if _, err := v2.Run(); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(capped.String(), "\n"); n != 1 {
		t.Fatalf("capped trace lines = %d, want 1", n)
	}
}

// TestMemoryCopy: Copy is memmove (overlap in either direction keeps
// the source image), stages through a reused buffer (no allocation
// after the first call), and rejects a negative length.
func TestMemoryCopy(t *testing.T) {
	mem := newMemory()
	base := uint64(HeapBase + pageSize - 5) // straddles a page boundary
	fill := func() {
		for i := 0; i < 16; i++ {
			if err := mem.WriteU(base+uint64(i), 1, uint64(i+1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, tc := range []struct {
		dst, src uint64
		want     []byte
	}{
		{base + 2, base, []byte{1, 2, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}},
		{base, base + 2, []byte{3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 11, 12}},
	} {
		fill()
		if err := mem.Copy(tc.dst, tc.src, 10); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 12)
		if err := mem.ReadInto(base, got); err != nil {
			t.Fatal(err)
		}
		if string(got) != string(tc.want) {
			t.Fatalf("Copy(%#x <- %#x) left %v, want %v", tc.dst, tc.src, got, tc.want)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := mem.Copy(base+32, base, 24); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Copy allocated %.1f times per call after the first, want 0", allocs)
	}
	if err := mem.Copy(base, base+8, -1); err == nil {
		t.Error("Copy accepted a negative length")
	}
	if err := mem.Copy(base, NullGuard-8, 4); !errors.Is(err, ErrNullDeref) {
		t.Errorf("Copy from the null guard: err = %v, want ErrNullDeref", err)
	}
}
