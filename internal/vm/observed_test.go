package vm

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"polar/internal/ir"
	"polar/internal/telemetry/profile"
)

// RecordingSink logs every TaintSink call with its arguments, one line
// per call, so two taint runs can be compared call for call. Exported
// for the external differential tests.
type RecordingSink struct {
	Log []string
}

func (s *RecordingSink) Content(st *ir.StructType, off, n int) {
	s.Log = append(s.Log, fmt.Sprintf("content %s %d %d", st.Name, off, n))
}
func (s *RecordingSink) Alloc(st *ir.StructType) { s.Log = append(s.Log, "alloc "+st.Name) }
func (s *RecordingSink) Free(st *ir.StructType)  { s.Log = append(s.Log, "free "+st.Name) }

// taintModule exercises every taint rule on input {9, 8, 7} so that
// dropping any one of them changes the sink log (taintModuleLog).
func taintModule(t *testing.T) *ir.Module {
	t.Helper()
	m := ir.NewModule("taint")
	obj := m.MustStruct(ir.NewStruct("Obj",
		ir.Field{Name: "a", Type: ir.I64},
		ir.Field{Name: "b", Type: ir.I64},
		ir.Field{Name: "c", Type: ir.I8},
		ir.Field{Name: "p", Type: ir.Raw},
	))
	life := m.MustStruct(ir.NewStruct("Life", ir.Field{Name: "x", Type: ir.I64}))
	for _, g := range []string{"buf", "raw"} {
		if _, err := m.AddGlobal(g, 64, nil); err != nil {
			t.Fatal(err)
		}
	}

	// pass(x) = x: the argument's label goes in, the return's comes out.
	pb := ir.NewFunc(m, "pass", ir.I64, ir.Param{Name: "x", Type: ir.I64})
	pb.Ret(pb.ParamReg(0))
	// renew(p) frees p and allocates a Life under its caller's control.
	rb := ir.NewFunc(m, "renew", ir.Raw, ir.Param{Name: "p", Type: ir.Raw})
	rb.Free(rb.ParamReg(0))
	rb.Ret(rb.Alloc(life))

	b := ir.NewFunc(m, "main", ir.I64, ir.Param{Name: "n", Type: ir.I64})
	o := b.Alloc(obj)
	o2 := b.Alloc(obj)
	l := b.Alloc(life)
	b.CallVoid("input_read", ir.Global("buf"), ir.Const(0), ir.Const(16)) // buf[0,3) tainted
	x := b.Load(ir.I64, ir.Global("buf"))
	b.Store(ir.I64, x, b.FieldPtr(obj, o, 0)) // content Obj 0 8
	// A clean store clears the labels it overwrites.
	b.Store(ir.I64, ir.Const(0), ir.Global("buf"))
	b.Store(ir.I64, b.Load(ir.I64, ir.Global("buf")), b.FieldPtr(obj, o, 1))
	// Labels ride through arithmetic, a call and its return.
	y := b.Call("pass", b.Bin(ir.BinMul, x, ir.Const(3)))
	b.Store(ir.I8, y, b.FieldPtr(obj, o, 2)) // content Obj 16 1
	// Pointer derivation keeps the base's label.
	b.Store(ir.Raw, b.PtrAdd(x, ir.Const(8)), b.FieldPtr(obj, o2, 3)) // content Obj 24 8
	b.Store(ir.I64, b.ElemPtr(ir.I64, x, ir.Const(2)), b.FieldPtr(obj, o2, 0))
	// memcpy copies labels (and reports a tainted copy into an object);
	// memset clears them.
	b.CallVoid("input_read", b.PtrAdd(ir.Global("buf"), ir.Const(8)), ir.Const(0), ir.Const(8))
	b.Memcpy(ir.Global("raw"), b.PtrAdd(ir.Global("buf"), ir.Const(8)), ir.Const(8))
	b.Store(ir.I64, b.Load(ir.I64, ir.Global("raw")), b.FieldPtr(obj, o2, 1)) // content Obj 8 8
	b.Memcpy(b.FieldPtr(obj, o2, 0), ir.Global("raw"), ir.Const(4))           // content Obj 0 4
	b.Memset(ir.Global("raw"), ir.Const(0), ir.Const(8))
	b.Store(ir.I64, b.Load(ir.I64, ir.Global("raw")), b.FieldPtr(obj, o, 1))
	// Builtin results: the sources taint theirs, the rest take the OR
	// of their arguments'.
	b.Store(ir.I8, b.Call("input_len"), b.FieldPtr(obj, o2, 2)) // content Obj 16 1
	b.Store(ir.I64, b.Call("rt_sqrt", ir.Const(4)), b.FieldPtr(obj, o, 1))
	b.Store(ir.I64, b.Call("rt_sqrt", b.ItoF(x)), b.FieldPtr(obj, o, 1)) // content Obj 8 8
	// A freed object's chunk comes back clean.
	b.Free(o)
	o3 := b.Alloc(obj)
	b.Store(ir.I64, b.Load(ir.I64, b.FieldPtr(obj, o3, 0)), b.FieldPtr(obj, o2, 1))
	// Under clean control, life-cycle events are not reported; under a
	// tainted branch they are, in callees too.
	b.If("clean", b.Cmp(ir.CmpGt, b.ParamReg(0), ir.Const(0)), func() {
		b.Free(l)
		b.Store(ir.Raw, b.Alloc(life), b.FieldPtr(obj, o3, 3))
	}, nil)
	b.If("tainted", b.Cmp(ir.CmpGt, x, ir.Const(0)), func() {
		b.Free(b.Call("renew", b.Alloc(life))) // free Life, alloc Life, alloc Life, free Life
	}, nil)
	b.Ret(b.Call("pass", ir.Const(1)))
	return m
}

// taintModuleLog is the sink log taintModule must produce.
var taintModuleLog = []string{
	"content Obj 0 8",
	"content Obj 16 1",
	"content Obj 24 8",
	"content Obj 0 8",
	"content Obj 8 8",
	"content Obj 0 4",
	"content Obj 16 1",
	"content Obj 8 8",
	"alloc Life",
	"free Life",
	"alloc Life",
	"free Life",
}

// observedOutcome is everything an observed run exposes: result, error
// text, Stats, the taint sink's log, the instruction log and the
// per-site profile.
type observedOutcome struct {
	ret     int64
	err     string
	stats   Stats
	sink    []string
	trace   string
	profile []profile.SiteSample
}

// runObserved runs m on e as a taint run and/or with the instruction
// log attached, under the site profiler.
func runObserved(t *testing.T, m *ir.Module, e engine, tainted, traced bool, opts []Option, args ...int64) observedOutcome {
	t.Helper()
	sink := &RecordingSink{}
	var tr strings.Builder
	prof := profile.NewSiteProfiler()
	opts = append(opts, WithProfiler(prof))
	if tainted {
		opts = append(opts, WithTaint(sink))
	}
	if traced {
		opts = append(opts, WithTrace(&tr, 0))
	}
	v, ret, err := runEngine(t, m, e, opts, args...)
	if cycles, _, _ := prof.Totals(); cycles != v.Stats.Instructions {
		t.Fatalf("%s: profiled cycles %d != executed instructions %d", e, cycles, v.Stats.Instructions)
	}
	out := observedOutcome{ret: ret, stats: v.Stats, sink: sink.Log, trace: tr.String(), profile: prof.Snapshot()}
	if err != nil {
		out.err = err.Error()
	}
	return out
}

// TestObservedRunsMatchReference: on the all-opcode program, the
// taint-rule program and every fault class, an observed bytecode run
// makes exactly the reference tree-walker's sink calls with the same
// arguments in the same order, writes the same instruction log, charges
// the same per-site profile, and ends with the same result, error and
// Stats — as a taint run, traced, and both at once. The two engines
// propagate labels independently (inline over allocated registers,
// and over source registers with a map of tainted bytes).
func TestObservedRunsMatchReference(t *testing.T) {
	mods := faultModules()
	mods["rich"] = richModule(t)
	mods["taint"] = taintModule(t)
	for name, m := range mods {
		for _, mode := range observedModes {
			opts := []Option{WithInput([]byte{9, 8, 7})}
			bc := runObserved(t, m, bytecode, mode.tainted, mode.traced, opts, 5)
			ref := runObserved(t, m, reference, mode.tainted, mode.traced, opts, 5)
			if !reflect.DeepEqual(bc, ref) {
				t.Fatalf("%s (tainted=%v traced=%v): observed run differs from the reference:\nbytecode  %+v\nreference %+v",
					name, mode.tainted, mode.traced, bc, ref)
			}
			if mode.traced && bc.trace == "" {
				t.Fatalf("%s: empty instruction log", name)
			}
		}
	}
}

// TestTaintRules pins the sink log of the taint-rule program on both
// engines, so a rule dropped from both at once still fails.
func TestTaintRules(t *testing.T) {
	for _, e := range engines {
		got := runObserved(t, taintModule(t), e, true, false, []Option{WithInput([]byte{9, 8, 7})}, 5)
		if got.err != "" {
			t.Fatalf("%s: %s", e, got.err)
		}
		if !reflect.DeepEqual(got.sink, taintModuleLog) {
			t.Fatalf("%s: sink log\n%s\nwant\n%s", e, strings.Join(got.sink, "\n"), strings.Join(taintModuleLog, "\n"))
		}
	}
}

// observedModes are the three ways a run is observed: a taint run, a
// traced run and both.
var observedModes = []struct{ tainted, traced bool }{{true, false}, {false, true}, {true, true}}

// taintFusedModule parses testdata/taint_fused.ir, whose input-derived
// values pass through every fused form (TestTaintFusedForms).
func taintFusedModule(t *testing.T) *ir.Module {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("testdata", "taint_fused.ir"))
	if err != nil {
		t.Fatal(err)
	}
	m, err := ir.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestObservedFuelSweep holds observed runs to the reference at every
// fuel value of the all-opcode, taint-rule and fused-form programs, as
// taint runs, traced runs and both: exhaustion must cut both engines'
// sink logs and instruction logs after the same call and line, also
// partway through a fused run.
func TestObservedFuelSweep(t *testing.T) {
	for _, tc := range []struct {
		m   *ir.Module
		err string // of the run at full fuel
	}{
		{richModule(t), ""},
		{taintModule(t), ""},
		{taintFusedModule(t), "@main.after: vm: integer division by zero"},
	} {
		for _, mode := range observedModes {
			in := []Option{WithInput([]byte{9, 8, 7})}
			full := runObserved(t, tc.m, reference, mode.tainted, mode.traced, in, 5)
			if full.err != tc.err {
				t.Fatalf("%s: full run err %q, want %q", tc.m.Name, full.err, tc.err)
			}
			for fuel := uint64(0); fuel <= full.stats.Instructions+1; fuel++ {
				opts := []Option{WithFuel(fuel), WithInput([]byte{9, 8, 7})}
				bc := runObserved(t, tc.m, bytecode, mode.tainted, mode.traced, opts, 5)
				ref := runObserved(t, tc.m, reference, mode.tainted, mode.traced, opts, 5)
				if !reflect.DeepEqual(bc, ref) {
					t.Fatalf("%s (tainted=%v traced=%v) fuel=%d: observed run differs from the reference:\nbytecode  %+v\nreference %+v",
						tc.m.Name, mode.tainted, mode.traced, fuel, bc, ref)
				}
			}
		}
	}
}

// TestTaintFusedForms: the fused-form program the fuel sweep runs
// lowers to a bcFused run holding an 8-byte store, a sub-word store, a
// load and a div, to 2-micro runs of a fieldptr and the load or store
// through it and of a compare and the branch on it, to a fused run
// ending in a branch, and to a fused run of unary micros in a function
// whose register 0 is tainted. Its taint run reports every tainted
// store and both guarded allocs and frees on both engines before the
// div faults.
func TestTaintFusedForms(t *testing.T) {
	m := taintFusedModule(t)
	p, err := Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	pairs := map[[2]mcOp]string{
		{mcFieldPtr, mcLoad8}:  "fieldload",
		{mcFieldPtr, mcStore8}: "fieldstore",
		{mcCmpGt, mcCondBr}:    "cmpbr",
	}
	seen := map[string]bool{}
	for _, bf := range p.bcFuncs {
		for pc := range bf.code {
			in := &bf.code[pc]
			if in.op != bcFused {
				continue
			}
			if len(in.micro) == 2 {
				if form, ok := pairs[[2]mcOp{in.micro[0].op, in.micro[1].op}]; ok {
					seen[form] = true
				}
			}
			ops := map[mcOp]bool{}
			div := false
			for _, mi := range in.micro {
				ops[mi.op] = true
				div = div || mi.op == mcBin && ir.BinKind(mi.kind) == ir.BinDiv
			}
			if ops[mcStore8] && ops[mcStore] && ops[mcLoad8] && div {
				seen["fused stores, load, div"] = true
			}
			if bf.fn.Name == "clean" && ops[mcMov] && ops[mcFieldPtr] && ops[mcLoad8] && ops[mcItoF] && ops[mcFtoI] {
				seen["fused unary"] = true
			}
			if bf.fn.Name == "guard" && ops[mcCondBr] {
				seen["fused condbr"] = true
			}
		}
	}
	for _, form := range []string{"fieldload", "fieldstore", "cmpbr", "fused stores, load, div", "fused unary", "fused condbr"} {
		if !seen[form] {
			t.Errorf("the lowering has no %s", form)
		}
	}
	want := []string{
		"alloc Obj",
		"free Obj",
		"alloc Obj",
		"free Obj",
		"content Obj 16 8",
		"alloc Obj",
		"content Obj 0 8",
		"content Obj 8 4",
		"content Obj 12 1",
	}
	for _, e := range engines {
		got := runObserved(t, m, e, true, false, []Option{WithInput([]byte{9})})
		if !reflect.DeepEqual(got.sink, want) {
			t.Errorf("%s: sink log\n%s\nwant\n%s", e, strings.Join(got.sink, "\n"), strings.Join(want, "\n"))
		}
	}
}

// TestObservedInstancesConcurrent: eight goroutines stamp taint and
// traced instances from one Program at once (run under -race). Every
// instance must make the reference's sink calls or write its
// instruction log, and end with its result and Stats.
func TestObservedInstancesConcurrent(t *testing.T) {
	const workers = 8
	p, err := Compile(taintModule(t))
	if err != nil {
		t.Fatal(err)
	}
	in := []byte{9, 8, 7}
	// run executes one instance of p, worker i's kind of observed run,
	// on engine e.
	run := func(e engine, i int) (observedOutcome, error) {
		sink := &RecordingSink{}
		var tr strings.Builder
		opt := WithTaint(sink)
		if i%2 == 1 {
			opt = WithTrace(&tr, 0)
		}
		v, err := p.NewInstance(opt, WithInput(in))
		if err != nil {
			return observedOutcome{}, err
		}
		ret, err := e.run(v, 5)
		out := observedOutcome{ret: ret, stats: v.Stats, sink: sink.Log, trace: tr.String()}
		if err != nil {
			out.err = err.Error()
		}
		return out, nil
	}
	var want [2]observedOutcome
	for i := range want {
		if want[i], err = run(reference, i); err != nil {
			t.Fatal(err)
		}
	}
	if len(want[0].sink) == 0 || want[1].trace == "" {
		t.Fatal("the reference runs observed nothing")
	}
	start := make(chan struct{})
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got, err := run(bytecode, i)
			if err == nil && !reflect.DeepEqual(got, want[i%2]) {
				err = fmt.Errorf("worker %d differs from the reference:\nbytecode  %+v\nreference %+v", i, got, want[i%2])
			}
			errs[i] = err
		}()
	}
	close(start)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
