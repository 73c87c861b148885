package vm

import (
	"testing"

	"polar/internal/ir"
)

// TestPlanICSitesDefaultSequential: every olr_getptr call site lowers
// to a getptr micro, in source order, of the fused run around it. A
// call of the builtin with another operand count stays a builtin call,
// and a call of a module function of that name a function call.
func TestPlanICSitesDefaultSequential(t *testing.T) {
	m := ir.NewModule("sites")
	b := ir.NewFunc(m, "main", ir.I64)
	p := b.Call("olr_malloc", ir.Const(7))
	for i := 0; i < 4; i++ {
		b.Call("olr_getptr", p, ir.Const(int64(i)), ir.Const(7))
	}
	b.Call("olr_getptr", p, ir.Const(0))
	b.Ret(ir.Const(0))
	prog, err := Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	bf := prog.bcFuncs[0]
	ops := []bcOp{bcCallBuiltin, bcFused, bcCallBuiltin, bcRet}
	if len(bf.code) != len(ops) {
		t.Fatalf("%d dispatches, want %d", len(bf.code), len(ops))
	}
	for pc, op := range ops {
		if bf.code[pc].op != op {
			t.Fatalf("pc %d: opcode %d, want %d", pc, bf.code[pc].op, op)
		}
	}
	run := bf.code[1].micro
	if len(run) != 4 {
		t.Fatalf("the fused run holds %d micros, want the 4 getptr sites", len(run))
	}
	consts := map[int64]int64{}
	for _, c := range bf.consts {
		consts[int64(c.slot)] = c.val
	}
	for i := range run {
		if mc := &run[i]; mc.op != mcGetptr || consts[mc.b] != int64(i) || consts[mc.c] != 7 {
			t.Errorf("micro %d: op %d, field %d, class %d; want a getptr of field %d, class 7", i, mc.op, consts[mc.b], consts[mc.c], i)
		}
	}

	// A module function named olr_getptr is an ordinary callee.
	m2 := ir.NewModule("shadowed")
	g := ir.NewFunc(m2, "olr_getptr", ir.I64, ir.Param{Name: "a", Type: ir.I64}, ir.Param{Name: "b", Type: ir.I64}, ir.Param{Name: "c", Type: ir.I64})
	g.Ret(g.ParamReg(0))
	b2 := ir.NewFunc(m2, "main", ir.I64)
	b2.Ret(b2.Call("olr_getptr", ir.Const(1), ir.Const(2), ir.Const(3)))
	prog2, err := Compile(m2)
	if err != nil {
		t.Fatal(err)
	}
	if code := prog2.bcFuncs[1].code; code[0].op != bcCallFunc {
		t.Fatalf("a call of the module function olr_getptr lowered to opcode %d, want bcCallFunc", code[0].op)
	}
}
