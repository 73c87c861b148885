package workload

import "polar/internal/ir"

// V8Orinoco models the one compatibility failure the paper reports
// (§V.A): V8's Orinoco garbage collector walks and relocates objects by
// computing member offsets *manually* from object base addresses —
// exactly the raw pointer arithmetic the POLaR pass cannot rewrite
// (§VI.B). The mini-GC below allocates HeapObject instances, then a
// "scavenger" pass reads each object's mark word via ptradd(base, 8)
// instead of fieldptr.
//
// Expected behaviour (demonstrated by TestV8OrinocoIncompatibility):
//   - the instrumenter leaves the raw accesses alone and counts them in
//     SkippedRawAccess;
//   - the hardened binary's GC reads the wrong bytes (the mark word is
//     no longer at +8), so the program's result DIVERGES from baseline —
//     the reproduction of "we excluded V8 at this point".
func V8Orinoco() *Workload {
	m := ir.NewModule("v8-orinoco")
	obj := m.MustStruct(ir.NewStruct("HeapObject",
		ir.Field{Name: "map_ptr", Type: ir.Raw},
		ir.Field{Name: "mark_word", Type: ir.I64},
		ir.Field{Name: "payload", Type: ir.I64},
	))
	const nObjs = 32
	mustGlobal(m, "roots", 8*nObjs)

	b := ir.NewFunc(m, "main", ir.I64)
	// Mutator: allocate objects, set mark words through proper member
	// accesses.
	b.CountedLoop("mk", ir.Const(nObjs), func(i ir.Value) {
		p := b.Alloc(obj)
		b.Store(ir.Raw, ir.Const(0), b.FieldPtrName(obj, p, "map_ptr"))
		mark := b.Bin(ir.BinAnd, i, ir.Const(1))
		b.Store(ir.I64, mark, b.FieldPtrName(obj, p, "mark_word"))
		b.Store(ir.I64, b.Bin(ir.BinMul, i, ir.Const(3)), b.FieldPtrName(obj, p, "payload"))
		b.Store(ir.I64, p, b.ElemPtr(ir.I64, ir.Global("roots"), i))
	})
	// Scavenger: count marked objects — but via the GC's manual offset
	// computation (mark word assumed at base+8), not fieldptr.
	live := b.Local(ir.I64)
	b.Store(ir.I64, ir.Const(0), live)
	b.CountedLoop("scan", ir.Const(nObjs), func(i ir.Value) {
		p := b.Load(ir.PtrTo(obj), b.ElemPtr(ir.I64, ir.Global("roots"), i))
		rawMark := b.Load(ir.I64, b.PtrAdd(p, ir.Const(8))) // manual offset!
		isMarked := b.Cmp(ir.CmpEq, rawMark, ir.Const(1))
		b.If("marked", isMarked, func() {
			cur := b.Load(ir.I64, live)
			b.Store(ir.I64, b.Bin(ir.BinAdd, cur, ir.Const(1)), live)
		}, nil)
	})
	b.Ret(b.Load(ir.I64, live))

	return &Workload{
		Name:              "v8-orinoco-model",
		Description:       "GC with manual member-offset computation — the paper's V8 incompatibility",
		Module:            m,
		Input:             nil,
		ExpectedTainted:   nil,
		PaperTaintedCount: -1,
	}
}
