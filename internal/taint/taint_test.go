package taint

import (
	"testing"

	"polar/internal/ir"
)

// buildTaintModule: reads input into a buffer, stores input-derived
// values into Hot's fields, constant values into Cold's fields, and
// conditionally frees a Lifecycle object under an input-dependent
// branch.
func buildTaintModule() *ir.Module {
	m := ir.NewModule("taint")
	hot := m.MustStruct(ir.NewStruct("Hot",
		ir.Field{Name: "a", Type: ir.I64},
		ir.Field{Name: "p", Type: ir.Raw},
	))
	cold := m.MustStruct(ir.NewStruct("Cold",
		ir.Field{Name: "c", Type: ir.I64},
	))
	lc := m.MustStruct(ir.NewStruct("Lifecycle",
		ir.Field{Name: "x", Type: ir.I64},
	))
	if _, err := m.AddGlobal("buf", 64, nil); err != nil {
		panic(err)
	}

	b := ir.NewFunc(m, "main", ir.I64)
	b.Call("input_read", ir.Global("buf"), ir.Const(0), ir.Const(16))

	h := b.Alloc(hot)
	v := b.Load(ir.I8, ir.Global("buf"))
	mixed := b.Bin(ir.BinMul, v, ir.Const(3)) // arithmetic keeps taint
	b.Store(ir.I64, mixed, b.FieldPtrName(hot, h, "a"))

	c := b.Alloc(cold)
	b.Store(ir.I64, ir.Const(7), b.FieldPtrName(cold, c, "c"))

	l := b.Alloc(lc)
	b.Store(ir.I64, ir.Const(0), b.FieldPtrName(lc, l, "x"))
	cond := b.Cmp(ir.CmpGt, v, ir.Const(10))
	b.If("lc", cond, func() {
		b.Free(l)
		l2 := b.Alloc(lc)
		b.Store(ir.I64, ir.Const(1), b.FieldPtrName(lc, l2, "x"))
	}, nil)
	b.Ret(v)
	return m
}

func TestContentTaintReachesHotNotCold(t *testing.T) {
	m := buildTaintModule()
	rep, err := AnalyzeOne(m, []byte{200, 1, 2, 3}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	hot, ok := rep.Object("Hot")
	if !ok || !hot.ContentTainted {
		t.Fatalf("Hot not content-tainted: %+v", hot)
	}
	ft := hot.SortedFields()
	if len(ft) != 1 || ft[0].Name != "a" || ft[0].IsPointer {
		t.Fatalf("Hot tainted fields = %+v", ft)
	}
	if cold, ok := rep.Object("Cold"); ok && cold.Tainted() {
		t.Fatalf("Cold is tainted: %+v", cold)
	}
}

func TestControlTaintMarksLifecycle(t *testing.T) {
	m := buildTaintModule()
	// Input byte 50 (positive as i8) takes the tainted branch: free + alloc under
	// tainted control.
	rep, err := AnalyzeOne(m, []byte{50, 0, 0, 0}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	lc, ok := rep.Object("Lifecycle")
	if !ok {
		t.Fatal("Lifecycle absent from report")
	}
	if !lc.AllocTainted || !lc.FreeTainted {
		t.Fatalf("Lifecycle life-cycle taint = alloc:%v free:%v", lc.AllocTainted, lc.FreeTainted)
	}
	// With a small input byte the branch is not taken: no life-cycle
	// taint (though the branch condition was still evaluated).
	rep2, err := AnalyzeOne(m, []byte{1, 0, 0, 0}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if lc2, ok := rep2.Object("Lifecycle"); ok && (lc2.AllocTainted || lc2.FreeTainted) {
		t.Fatalf("untaken branch still marked life-cycle: %+v", lc2)
	}
}

func TestTaintThroughMemcpy(t *testing.T) {
	m := ir.NewModule("cpy")
	dst := m.MustStruct(ir.NewStruct("Dst", ir.Field{Name: "v", Type: ir.I64}))
	if _, err := m.AddGlobal("buf", 32, nil); err != nil {
		t.Fatal(err)
	}
	b := ir.NewFunc(m, "main", ir.I64)
	b.Call("input_read", ir.Global("buf"), ir.Const(0), ir.Const(8))
	d := b.Alloc(dst)
	b.Memcpy(d, ir.Global("buf"), ir.Const(8)) // taint flows via copy
	b.Ret(ir.Const(0))
	rep, err := AnalyzeOne(m, []byte{1, 2, 3, 4, 5, 6, 7, 8}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	o, ok := rep.Object("Dst")
	if !ok || !o.ContentTainted {
		t.Fatalf("memcpy did not propagate taint: %+v", o)
	}
}

func TestMemsetClearsTaint(t *testing.T) {
	m := ir.NewModule("clr")
	st := m.MustStruct(ir.NewStruct("S", ir.Field{Name: "v", Type: ir.I64}))
	if _, err := m.AddGlobal("buf", 32, nil); err != nil {
		t.Fatal(err)
	}
	b := ir.NewFunc(m, "main", ir.I64)
	b.Call("input_read", ir.Global("buf"), ir.Const(0), ir.Const(8))
	b.Memset(ir.Global("buf"), ir.Const(0), ir.Const(32)) // sanitize
	p := b.Alloc(st)
	v := b.Load(ir.I64, ir.Global("buf"))
	b.Store(ir.I64, v, b.FieldPtr(st, p, 0))
	b.Ret(ir.Const(0))
	rep, err := AnalyzeOne(m, []byte{9, 9, 9, 9}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if o, ok := rep.Object("S"); ok && o.Tainted() {
		t.Fatalf("memset did not clear taint: %+v", o)
	}
}

func TestTaintThroughFunctionCallAndReturn(t *testing.T) {
	m := ir.NewModule("flow")
	st := m.MustStruct(ir.NewStruct("S", ir.Field{Name: "v", Type: ir.I64}))

	// identity(x) = x — taint must ride through the call and the return.
	idb := ir.NewFunc(m, "identity", ir.I64, ir.Param{Name: "x", Type: ir.I64})
	idb.Ret(idb.ParamReg(0))

	b := ir.NewFunc(m, "main", ir.I64)
	v := b.Call("input_byte", ir.Const(0))
	w := b.Call("identity", v)
	p := b.Alloc(st)
	b.Store(ir.I64, w, b.FieldPtr(st, p, 0))
	b.Ret(ir.Const(0))

	rep, err := AnalyzeOne(m, []byte{5}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	o, ok := rep.Object("S")
	if !ok || !o.ContentTainted {
		t.Fatalf("taint lost across call boundary: %+v", o)
	}
}

func TestFreshAllocationStartsClean(t *testing.T) {
	// A chunk that previously held tainted bytes must not taint its
	// reincarnation.
	m := ir.NewModule("fresh")
	st := m.MustStruct(ir.NewStruct("S", ir.Field{Name: "v", Type: ir.I64}))
	b := ir.NewFunc(m, "main", ir.I64)
	p := b.Alloc(st)
	v := b.Call("input_byte", ir.Const(0))
	b.Store(ir.I64, v, b.FieldPtr(st, p, 0))
	b.Free(p)
	q := b.Alloc(st) // same chunk, recycled
	w := b.Load(ir.I64, b.FieldPtr(st, q, 0))
	slot := b.Local(ir.I64)
	b.Store(ir.I64, w, slot)
	b.Ret(ir.Const(0))

	rep, err := AnalyzeOne(m, []byte{77}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The report records the FIRST store (tainted); that is correct.
	// What must NOT happen is growth of tainted fields via the stale
	// load — field "v" is the only one either way, so check the second
	// object's load produced no new attribution by confirming the
	// report's field set is exactly {v}.
	o, ok := rep.Object("S")
	if !ok || len(o.Fields) != 1 {
		t.Fatalf("report fields = %+v", o)
	}
}

func TestMergeAndCount(t *testing.T) {
	a := NewReport()
	b := NewReport()
	st := ir.NewStruct("S", ir.Field{Name: "x", Type: ir.I64}, ir.Field{Name: "y", Type: ir.I32})
	a.Content(st, 0, 8)
	b.Content(st, 8, 4)
	b.Alloc(st)
	other := ir.NewStruct("T", ir.Field{Name: "z", Type: ir.I64})
	b.Free(other)
	a.Merge(b)
	if a.Count() != 2 {
		t.Fatalf("merged count = %d, want 2", a.Count())
	}
	o, _ := a.Object("S")
	if len(o.Fields) != 2 || !o.AllocTainted {
		t.Fatalf("merged S = %+v", o)
	}
	if o.Fields[0].Name != "x" || o.Fields[1].Name != "y" {
		t.Fatalf("merged fields = %+v %+v", o.Fields[0], o.Fields[1])
	}
	ot, _ := a.Object("T")
	if !ot.FreeTainted {
		t.Fatal("merged T lost free taint")
	}
	if s := a.String(); s == "" {
		t.Fatal("String() empty")
	}
}

func TestAnalyzeCorpusIgnoresCrashes(t *testing.T) {
	m := ir.NewModule("crash")
	st := m.MustStruct(ir.NewStruct("S", ir.Field{Name: "v", Type: ir.I64}))
	b := ir.NewFunc(m, "main", ir.I64)
	p := b.Alloc(st)
	v := b.Call("input_byte", ir.Const(0))
	b.Store(ir.I64, v, b.FieldPtr(st, p, 0))
	big := b.Cmp(ir.CmpGt, v, ir.Const(100))
	b.If("boom", big, func() {
		x := b.Load(ir.I64, ir.Const(4)) // null deref
		_ = x
	}, nil)
	b.Ret(ir.Const(0))

	// Crash input + benign input: with IgnoreRunErrors both contribute.
	rep, err := Analyze(m, [][]byte{{200}, {1}}, RunOptions{IgnoreRunErrors: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Count() != 1 {
		t.Fatalf("count = %d", rep.Count())
	}
	// Without the flag the crash is an error.
	if _, err := Analyze(m, [][]byte{{200}}, RunOptions{}); err == nil {
		t.Fatal("crash swallowed without IgnoreRunErrors")
	}
}

// buildLargeObjectModule allocates a struct {[n x i64], i64} and a
// small struct, and stores input_byte(0) into the last member of each.
func buildLargeObjectModule(n int) *ir.Module {
	m := ir.NewModule("large")
	big := m.MustStruct(ir.NewStruct("Big",
		ir.Field{Name: "arr", Type: ir.ArrayOf(ir.I64, n)},
		ir.Field{Name: "last", Type: ir.I64},
	))
	small := m.MustStruct(ir.NewStruct("Small",
		ir.Field{Name: "a", Type: ir.I64},
		ir.Field{Name: "last", Type: ir.I64},
	))
	b := ir.NewFunc(m, "main", ir.I64)
	v := b.Call("input_byte", ir.Const(0))
	bp := b.Alloc(big)
	b.Store(ir.I64, v, b.FieldPtrName(big, bp, "last"))
	sp := b.Alloc(small)
	b.Store(ir.I64, v, b.FieldPtrName(small, sp, "last"))
	b.Ret(v)
	return m
}

// TestContentTaintPastLargestSizeClass: a tainted member more than the
// heap's largest size class (32 KiB) into its object is attributed to
// the object's class like any other.
func TestContentTaintPastLargestSizeClass(t *testing.T) {
	for _, n := range []int{4096, 8192} { // 32,776- and 65,544-byte objects
		rep, err := AnalyzeOne(buildLargeObjectModule(n), []byte{9}, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, class := range []string{"Big", "Small"} {
			o, ok := rep.Object(class)
			if !ok || !o.ContentTainted {
				t.Errorf("n=%d: %s not content-tainted; report:\n%s", n, class, rep)
				continue
			}
			if ft := o.SortedFields(); len(ft) != 1 || ft[0].Name != "last" {
				t.Errorf("n=%d: %s tainted fields = %+v, want [last]", n, class, ft)
			}
		}
	}
}
