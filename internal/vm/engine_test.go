package vm

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"polar/internal/ir"
	"polar/internal/telemetry/profile"
)

// richModule builds a module exercising every opcode — allocation,
// loads/stores of every width, the dependent pairs (fieldptr+load,
// fieldptr+store, cmp+condbr), float ops, conversions, memcpy/memset,
// elemptr/ptradd, global and func-ref operands, recursion, builtins —
// so one differential run covers the whole lowering surface.
func richModule(t *testing.T) *ir.Module {
	t.Helper()
	m := ir.NewModule("rich")
	if _, err := m.AddGlobal("g", 64, []byte{0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x08}); err != nil {
		t.Fatal(err)
	}
	st := m.MustStruct(ir.NewStruct("Node",
		ir.Field{Name: "val", Type: ir.I64},
		ir.Field{Name: "small", Type: ir.I8},
		ir.Field{Name: "next", Type: ir.Raw},
	))

	fb := ir.NewFunc(m, "mix", ir.I64, ir.Param{Name: "n", Type: ir.I64})
	n := fb.ParamReg(0)
	small := fb.Cmp(ir.CmpLt, n, ir.Const(2))
	fb.If("base", small, func() { fb.Ret(n) }, nil)
	a := fb.Call("mix", fb.Bin(ir.BinSub, n, ir.Const(1)))
	b2 := fb.Call("mix", fb.Bin(ir.BinSub, n, ir.Const(2)))
	fb.Ret(fb.Bin(ir.BinAdd, a, b2))

	b := ir.NewFunc(m, "main", ir.I64, ir.Param{Name: "x", Type: ir.I64})
	sum := b.Local(ir.I64)
	b.Store(ir.I64, ir.Const(0), sum)

	// Heap object: fused fieldptr+store then fieldptr+load, with a
	// negative i8 store to exercise sign-extending fused loads.
	node := b.Alloc(st)
	b.Store(ir.I64, ir.Const(40), b.FieldPtr(st, node, 0))
	b.Store(ir.I8, ir.Const(-6), b.FieldPtr(st, node, 1))
	v0 := b.Load(ir.I64, b.FieldPtr(st, node, 0))
	v1 := b.Load(ir.I8, b.FieldPtr(st, node, 1))
	b.Store(ir.I64, b.Bin(ir.BinAdd, v0, v1), sum)

	// Loop with fused cmp+condbr, elemptr indexing, memset/memcpy.
	arr := b.AllocN(ir.I64, ir.Const(8))
	b.Memset(arr, ir.Const(0), ir.Const(64))
	b.CountedLoop("fill", ir.Const(8), func(i ir.Value) {
		b.Store(ir.I64, b.Bin(ir.BinMul, i, i), b.ElemPtr(ir.I64, arr, i))
	})
	b.Memcpy(b.PtrAdd(arr, ir.Const(8)), arr, ir.Const(24))
	loopAcc := b.Load(ir.I64, b.ElemPtr(ir.I64, arr, ir.Const(3)))
	b.Store(ir.I64, b.Bin(ir.BinAdd, b.Load(ir.I64, sum), loopAcc), sum)

	// Floats, conversions, global and func-ref operands.
	f := b.FBin(ir.BinMul, b.ItoF(b.ParamReg(0)), ir.ConstF(1.5))
	fcmp := b.FCmp(ir.CmpGt, f, ir.ConstF(2.0))
	gv := b.Load(ir.I64, ir.Global("g"))
	slot := b.Local(ir.Fptr)
	b.Store(ir.Fptr, ir.FuncRef("mix"), slot)
	handle := b.Load(ir.Fptr, slot)
	hbit := b.Bin(ir.BinAnd, handle, ir.Const(0xff))
	mixed := b.Bin(ir.BinXor, gv, b.Bin(ir.BinAdd, b.FtoI(f), fcmp))
	b.Store(ir.I64, b.Bin(ir.BinAdd, b.Load(ir.I64, sum), b.Bin(ir.BinAnd, mixed, ir.Const(0xffff))), sum)
	b.Store(ir.I64, b.Bin(ir.BinAdd, b.Load(ir.I64, sum), hbit), sum)

	// Calls (recursion), builtins, input, mov, free.
	fib := b.Call("mix", ir.Const(10))
	inb := b.Call("input_byte", ir.Const(0))
	b.CallVoid("print_i64", fib)
	moved := b.Mov(fib)
	b.Free(node)
	b.Free(arr)
	total := b.Bin(ir.BinAdd, b.Load(ir.I64, sum), b.Bin(ir.BinAdd, moved, inb))
	b.Ret(total)
	return m
}

// engine names one way to run an instance: the bytecode engine
// (VM.Run) or the tree-walking reference (RunReference).
type engine struct {
	name string
	run  func(v *VM, args ...int64) (int64, error)
}

func (e engine) String() string { return e.name }

var (
	bytecode  = engine{"bytecode", (*VM).Run}
	reference = engine{"reference", RunReference}
	engines   = []engine{bytecode, reference}
)

// runEngine executes the module on one engine and returns everything
// observable.
func runEngine(t *testing.T, m *ir.Module, e engine, opts []Option, args ...int64) (*VM, int64, error) {
	t.Helper()
	v, err := New(ir.Clone(m), opts...)
	if err != nil {
		t.Fatal(err)
	}
	res, runErr := e.run(v, args...)
	return v, res, runErr
}

func TestEnginesDifferentialRichProgram(t *testing.T) {
	m := richModule(t)
	opts := []Option{WithInput([]byte{9, 8, 7}), WithCoverage()}
	vb, rb, eb := runEngine(t, m, bytecode, opts, 5)
	vl, rl, el := runEngine(t, m, reference, opts, 5)
	if (eb == nil) != (el == nil) || (eb != nil && eb.Error() != el.Error()) {
		t.Fatalf("errors differ: bytecode=%v reference=%v", eb, el)
	}
	if rb != rl {
		t.Fatalf("results differ: bytecode=%d reference=%d", rb, rl)
	}
	if vb.Stats != vl.Stats {
		t.Fatalf("stats differ:\nbytecode %+v\nreference %+v", vb.Stats, vl.Stats)
	}
	if string(vb.Output()) != string(vl.Output()) {
		t.Fatalf("outputs differ: %q vs %q", vb.Output(), vl.Output())
	}
	if !reflect.DeepEqual(vb.Coverage(), vl.Coverage()) {
		t.Fatal("coverage bitmaps differ between engines")
	}
}

// TestEnginesDifferentialFuelSweep holds both engines to identical
// behavior at every fuel value: the same success/error (same message,
// same site) and the same Stats, including across superinstruction
// boundaries where the bytecode engine must execute exactly half a
// fused pair before reporting exhaustion.
func TestEnginesDifferentialFuelSweep(t *testing.T) {
	m := richModule(t)
	// Find the total instruction count once, then sweep past it.
	v, err := New(ir.Clone(m))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunReference(v, 5); err != nil {
		t.Fatal(err)
	}
	total := v.Stats.Instructions
	if total == 0 || total > 40_000 {
		t.Fatalf("unexpected program length %d", total)
	}
	for fuel := uint64(0); fuel <= total+2; fuel++ {
		opts := []Option{WithFuel(fuel), WithInput([]byte{9, 8, 7})}
		vb, rb, eb := runEngine(t, m, bytecode, opts, 5)
		vl, rl, el := runEngine(t, m, reference, opts, 5)
		if (eb == nil) != (el == nil) || (eb != nil && eb.Error() != el.Error()) {
			t.Fatalf("fuel=%d: errors differ:\nbytecode: %v\nreference: %v", fuel, eb, el)
		}
		if rb != rl {
			t.Fatalf("fuel=%d: results differ: %d vs %d", fuel, rb, rl)
		}
		if vb.Stats != vl.Stats {
			t.Fatalf("fuel=%d: stats differ:\nbytecode %+v\nreference %+v", fuel, vb.Stats, vl.Stats)
		}
		if fuel < total && eb == nil {
			t.Fatalf("fuel=%d < total=%d but run succeeded", fuel, total)
		}
	}
}

// faultModules returns one small program per fault class, each dying
// mid-block (inside a fused pair where the lowering fuses one).
func faultModules() map[string]*ir.Module {
	build := func(f func(b *ir.Builder, st *ir.StructType)) *ir.Module {
		m := ir.NewModule("faulty")
		st := m.MustStruct(ir.NewStruct("S", ir.Field{Name: "x", Type: ir.I64}))
		b := ir.NewFunc(m, "main", ir.I64)
		f(b, st)
		return m
	}
	return map[string]*ir.Module{
		"null-deref": build(func(b *ir.Builder, st *ir.StructType) {
			b.Ret(b.Load(ir.I64, ir.Const(16)))
		}),
		"fused-load-fault": build(func(b *ir.Builder, st *ir.StructType) {
			// fieldptr+load fuses; the load half faults in the null guard.
			p := b.FieldPtr(st, ir.Const(0x10), 0)
			b.Ret(b.Load(ir.I64, p))
		}),
		"fused-store-fault": build(func(b *ir.Builder, st *ir.StructType) {
			p := b.FieldPtr(st, ir.Const(0x10), 0)
			b.Store(ir.I64, ir.Const(1), p)
			b.Ret(ir.Const(0))
		}),
		"div-zero": build(func(b *ir.Builder, st *ir.StructType) {
			b.Ret(b.Bin(ir.BinDiv, ir.Const(3), ir.Const(0)))
		}),
		"double-free": build(func(b *ir.Builder, st *ir.StructType) {
			p := b.Alloc(st)
			b.Free(p)
			b.Free(p)
			b.Ret(ir.Const(0))
		}),
		"unknown-builtin": build(func(b *ir.Builder, st *ir.StructType) {
			b.Ret(b.Call("rt_no_such_builtin"))
		}),
		"abort": build(func(b *ir.Builder, st *ir.StructType) {
			b.CallVoid("rt_abort", ir.Const(3))
			b.Ret(ir.Const(0))
		}),
	}
}

// TestEnginesDifferentialFaults checks fault parity: same wrapped error
// text and same instruction counts when the program dies mid-block.
func TestEnginesDifferentialFaults(t *testing.T) {
	for name, m := range faultModules() {
		vb, _, eb := runEngine(t, m, bytecode, nil)
		vl, _, el := runEngine(t, m, reference, nil)
		if eb == nil || el == nil {
			t.Fatalf("%s: expected both engines to fail, got bytecode=%v reference=%v", name, eb, el)
		}
		if eb.Error() != el.Error() {
			t.Fatalf("%s: error text differs:\nbytecode: %v\nreference: %v", name, eb, el)
		}
		if vb.Stats != vl.Stats {
			t.Fatalf("%s: stats differ:\nbytecode %+v\nreference %+v", name, vb.Stats, vl.Stats)
		}
	}
}

// TestFusedIntermediateRegisterVisible: the fieldptr register of a
// fused pair must hold the derived pointer afterwards — later
// instructions (here: a second store through the same register) depend
// on it.
func TestFusedIntermediateRegisterVisible(t *testing.T) {
	m := ir.NewModule("fusedreg")
	st := m.MustStruct(ir.NewStruct("S", ir.Field{Name: "x", Type: ir.I64}))
	b := ir.NewFunc(m, "main", ir.I64)
	p := b.Alloc(st)
	fp := b.FieldPtr(st, p, 0) // fuses with the next load
	first := b.Load(ir.I64, fp)
	// Store the pointer value itself through the fused pair's register.
	b.Store(ir.I64, fp, fp)
	second := b.Load(ir.I64, fp)
	b.Ret(b.Bin(ir.BinAdd, first, b.Bin(ir.BinSub, second, fp)))
	for _, e := range engines {
		got, err := e.run(mustVM(t, ir.Clone(m)))
		if err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		if got != 0 {
			t.Fatalf("%v: got %d, want 0", e, got)
		}
	}
}

// TestObserversRunOnBytecode: a taint sink and the instruction log run
// the Program's one lowering, fused runs included, and still produce
// their events.
func TestObserversRunOnBytecode(t *testing.T) {
	m := ir.NewModule("observed")
	st := m.MustStruct(ir.NewStruct("S", ir.Field{Name: "x", Type: ir.I64}))
	b := ir.NewFunc(m, "main", ir.I64)
	b.Store(ir.I64, b.Call("input_byte", ir.Const(0)), b.FieldPtr(st, b.Alloc(st), 0))
	// Two adds make a fused run.
	b.Ret(b.Bin(ir.BinAdd, b.Bin(ir.BinAdd, ir.Const(1), ir.Const(2)), ir.Const(0)))
	p, err := Compile(m)
	if err != nil {
		t.Fatal(err)
	}

	var tr strings.Builder
	v, err := p.NewInstance(WithTrace(&tr, 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Run(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tr.String(), "add 1, 2") {
		t.Fatalf("trace empty on an observed run: %q", tr.String())
	}
	if v.Perf.FusedDispatches == 0 {
		t.Fatal("the traced run dispatched no fused run")
	}

	sink := &RecordingSink{}
	v2, err := p.NewInstance(WithTaint(sink), WithInput([]byte{1}))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := v2.Run(); err != nil || got != 3 {
		t.Fatalf("taint run: got %d, %v; want 3", got, err)
	}
	if v2.Perf.FusedDispatches == 0 {
		t.Fatal("the taint run dispatched no fused run")
	}
	if !reflect.DeepEqual(sink.Log, []string{"content S 0 8"}) {
		t.Fatalf("taint sink log on an observed run: %q", sink.Log)
	}
}

// TestProfilerAttributionConservation: with per-instruction
// attribution, total profiled cycles must equal Stats.Instructions
// exactly — in both engines — and the per-site profiles must agree
// between engines.
func TestProfilerAttributionConservation(t *testing.T) {
	m := richModule(t)
	profiles := make(map[string][]profile.SiteSample)
	for _, e := range engines {
		p := profile.NewSiteProfiler()
		v := mustVM(t, ir.Clone(m), WithProfiler(p), WithInput([]byte{9}))
		if _, err := e.run(v, 6); err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		cycles, _, _ := p.Totals()
		if cycles != v.Stats.Instructions {
			t.Fatalf("%v: profiled cycles %d != executed instructions %d", e, cycles, v.Stats.Instructions)
		}
		profiles[e.name] = p.Snapshot()
	}
	if !reflect.DeepEqual(profiles["bytecode"], profiles["reference"]) {
		t.Fatalf("per-site profiles differ:\nbytecode:  %+v\nreference: %+v",
			profiles["bytecode"], profiles["reference"])
	}
}

// TestProfilerEarlyExitNoOvercharge: a fault on the first instruction
// of a long block must charge 1 cycle, not the whole block (the old
// block-entry accounting charged all of it).
func TestProfilerEarlyExitNoOvercharge(t *testing.T) {
	m := ir.NewModule("early")
	b := ir.NewFunc(m, "main", ir.I64)
	v0 := b.Load(ir.I64, ir.Const(8)) // faults immediately
	pad := v0
	for i := 0; i < 20; i++ {
		pad = b.Bin(ir.BinAdd, pad, ir.Const(1))
	}
	b.Ret(pad)
	for _, e := range engines {
		p := profile.NewSiteProfiler()
		v := mustVM(t, ir.Clone(m), WithProfiler(p))
		if _, err := e.run(v); err == nil {
			t.Fatalf("%v: expected fault", e)
		}
		cycles, _, _ := p.Totals()
		if cycles != 1 {
			t.Fatalf("%v: early fault charged %d cycles, want 1", e, cycles)
		}
		if v.Stats.Instructions != 1 {
			t.Fatalf("%v: Stats.Instructions = %d, want 1", e, v.Stats.Instructions)
		}
	}
}

// TestRegisterBuiltinRebindsBothEngines: re-registering a builtin after
// a run must take effect in the bytecode slot table and in the
// reference engine's name lookup.
func TestRegisterBuiltinRebindsBothEngines(t *testing.T) {
	m := ir.NewModule("rebind")
	b := ir.NewFunc(m, "main", ir.I64)
	b.Ret(b.Call("rt_custom"))
	for _, e := range engines {
		v := mustVM(t, ir.Clone(m))
		if _, err := e.run(v); !errors.Is(err, ErrUnknownFunc) {
			t.Fatalf("%v: want ErrUnknownFunc before registration, got %v", e, err)
		}
		v.RegisterBuiltin("rt_custom", func(c *Call) (int64, error) { return 41, nil })
		if got, err := e.run(v); err != nil || got != 41 {
			t.Fatalf("%v: after registration: %d, %v", e, got, err)
		}
		v.RegisterBuiltin("rt_custom", func(c *Call) (int64, error) { return 42, nil })
		if got, err := e.run(v); err != nil || got != 42 {
			t.Fatalf("%v: after re-registration: %d, %v", e, got, err)
		}
	}
}

// pairsModule is a module whose every maximal fusable run is exactly
// one dependent pair: fieldptr+store, fieldptr+load and cmp+condbr,
// each fenced by instructions that never fuse.
func pairsModule() *ir.Module {
	m := ir.NewModule("pairs")
	st := m.MustStruct(ir.NewStruct("P", ir.Field{Name: "a", Type: ir.I64}))
	b := ir.NewFunc(m, "main", ir.I64, ir.Param{Name: "x", Type: ir.I64})
	node := b.Alloc(st)
	b.Store(ir.I64, b.ParamReg(0), b.FieldPtr(st, node, 0))
	b.CallVoid("print_i64", ir.Const(1))
	v := b.Load(ir.I64, b.FieldPtr(st, node, 0))
	b.CallVoid("print_i64", v)
	b.If("small", b.Cmp(ir.CmpLt, v, ir.Const(3)), func() { b.Ret(ir.Const(1)) }, nil)
	b.Ret(ir.Const(0))
	return m
}

// TestLoweringFusesPairs sanity-checks the lowered form itself: the
// rich module must contain bcFused runs that account their micros, and
// a module whose maximal runs are dependent pairs must lower each to a
// 2-micro run that both engines execute alike.
func TestLoweringFusesPairs(t *testing.T) {
	checkWeights := func(p *Program) {
		// Weight bookkeeping: per function, block costs sum to the source
		// instruction count regardless of how the fuser carved the runs.
		for fi, bf := range p.bcFuncs {
			var lowered uint32
			for _, bb := range bf.blocks {
				lowered += bb.cost
			}
			var source uint32
			for _, blk := range p.mod.Funcs[fi].Blocks {
				source += uint32(len(blk.Instrs))
			}
			if lowered != source {
				t.Errorf("@%s: lowered weight %d != source instructions %d", bf.fn.Name, lowered, source)
			}
		}
	}
	// runs lists the micro-op sequence of every bcFused run.
	runs := func(p *Program) [][]mcOp {
		var out [][]mcOp
		for _, bf := range p.bcFuncs {
			for i := range bf.code {
				if in := &bf.code[i]; in.op == bcFused {
					ops := make([]mcOp, len(in.micro))
					for mi := range in.micro {
						ops[mi] = in.micro[mi].op
					}
					out = append(out, ops)
					if in.weight() != uint32(len(in.micro)) {
						t.Errorf("@%s: bcFused weight %d != %d micros", bf.fn.Name, in.weight(), len(in.micro))
					}
				}
			}
		}
		return out
	}

	p, err := Compile(richModule(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(runs(p)) == 0 {
		t.Error("the all-opcode module lowered no bcFused run")
	}
	checkWeights(p)

	pc, err := Compile(pairsModule())
	if err != nil {
		t.Fatal(err)
	}
	want := [][]mcOp{{mcFieldPtr, mcStore8}, {mcFieldPtr, mcLoad8}, {mcCmpLt, mcCondBr}}
	if got := runs(pc); !reflect.DeepEqual(got, want) {
		t.Errorf("pair module lowered to runs %v, want %v", got, want)
	}
	checkWeights(pc)
	for _, e := range engines {
		if got, err := e.run(mustVM(t, pairsModule()), 2); err != nil || got != 1 {
			t.Errorf("%v: pair-only module returned %d, %v; want 1", e, got, err)
		}
	}
}

// TestFuelSweepSuccessStatsStable: once fuel suffices, Stats must be
// independent of the exact fuel value (no refund-accounting leaks).
func TestFuelSweepSuccessStatsStable(t *testing.T) {
	m := richModule(t)
	var want Stats
	for i, fuel := range []uint64{0, 1, 7, 1 << 30} {
		v := mustVM(t, ir.Clone(m), WithInput([]byte{9}))
		if fuel != 0 {
			v = mustVM(t, ir.Clone(m), WithInput([]byte{9}), WithFuel(1<<30+fuel))
		}
		if _, err := v.Run(4); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = v.Stats
		} else if v.Stats != want {
			t.Fatalf("fuel variant %d changed stats: %+v != %+v", fuel, v.Stats, want)
		}
	}
}
