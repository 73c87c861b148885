package ir

import (
	"errors"
	"strings"
	"testing"
)

// problemsOf runs Validate and returns the individual problem strings.
func problemsOf(t *testing.T, m *Module) []string {
	t.Helper()
	err := Validate(m)
	if err == nil {
		return nil
	}
	var ve *ValidationError
	if !asValidationError(err, &ve) {
		t.Fatalf("Validate returned a non-ValidationError: %v", err)
	}
	return ve.Problems
}

func asValidationError(err error, out **ValidationError) bool {
	ve, ok := err.(*ValidationError)
	if ok {
		*out = ve
	}
	return ok
}

func TestValidateReportsUnreachableBlock(t *testing.T) {
	m := NewModule("dead")
	b := NewFunc(m, "main", I64)
	b.Ret(Const(1))
	b.Block("orphan")
	b.Ret(Const(2))
	probs := problemsOf(t, m)
	if len(probs) != 1 || !strings.Contains(probs[0], "@main.orphan: unreachable block") {
		t.Fatalf("want one unreachable-block problem, got %v", probs)
	}
}

func TestValidateReportsUseBeforeDef(t *testing.T) {
	m := NewModule("ubd")
	f := &Func{Name: "main", Ret: I64, NumRegs: 2}
	f.Blocks = []*Block{{Name: "entry", Instrs: []Instr{
		{Op: OpBin, Dest: 1, Bin: BinAdd, Args: []Value{Reg(0), Const(1)}},
		{Op: OpRet, Dest: -1, Args: []Value{Reg(1)}},
	}}}
	m.Funcs = append(m.Funcs, f)
	probs := problemsOf(t, m)
	if len(probs) != 1 || !strings.Contains(probs[0], "%r0 used before any definition") {
		t.Fatalf("want one use-before-def problem, got %v", probs)
	}
}

// A register defined on only one of two joining paths must NOT be
// flagged: the check is definite (no def on any path), so merge-heavy
// code stays clean.
func TestValidateUseAfterPartialDefIsClean(t *testing.T) {
	m := NewModule("partial")
	b := NewFunc(m, "main", I64, Param{Name: "x", Type: I64})
	v := b.Mov(Const(0)) // def on the fall-through path too
	c := b.Cmp(CmpGt, b.ParamReg(0), Const(0))
	b.If("pos", c, func() {
		b.Store(I64, Const(1), v) // arbitrary use; v defined before branch
	}, nil)
	b.Ret(v)
	if err := Validate(m); err != nil {
		t.Fatalf("clean module rejected: %v", err)
	}
}

// Parameters count as defined at entry.
func TestValidateParamsAreDefined(t *testing.T) {
	m := NewModule("params")
	b := NewFunc(m, "main", I64, Param{Name: "x", Type: I64})
	b.Ret(b.ParamReg(0))
	if err := Validate(m); err != nil {
		t.Fatalf("param use rejected: %v", err)
	}
}

// Uses inside unreachable blocks are not reported as use-before-def
// (the unreachable-block problem already covers the region).
func TestValidateUnreachableUseNotDoubleReported(t *testing.T) {
	m := NewModule("deaduse")
	f := &Func{Name: "main", Ret: I64, NumRegs: 1}
	f.Blocks = []*Block{
		{Name: "entry", Instrs: []Instr{{Op: OpRet, Dest: -1, Args: []Value{Const(0)}}}},
		{Name: "orphan", Instrs: []Instr{{Op: OpRet, Dest: -1, Args: []Value{Reg(0)}}}},
	}
	m.Funcs = append(m.Funcs, f)
	probs := problemsOf(t, m)
	if len(probs) != 1 || !strings.Contains(probs[0], "unreachable block") {
		t.Fatalf("want only the unreachable-block problem, got %v", probs)
	}
}

func TestCFGShape(t *testing.T) {
	m := NewModule("cfg")
	b := NewFunc(m, "main", I64, Param{Name: "n", Type: I64})
	b.CountedLoop("l", b.ParamReg(0), func(i Value) {})
	b.Ret(Const(0))
	f := m.Func("main")
	c := BuildCFG(f)
	head := f.BlockIndex("l.head")
	body := f.BlockIndex("l.body")
	exit := f.BlockIndex("l.exit")
	if head < 0 || body < 0 || exit < 0 {
		t.Fatalf("loop blocks missing: %v", f.Blocks)
	}
	if got := c.Succs[head]; len(got) != 2 || got[0] != body || got[1] != exit {
		t.Fatalf("head succs = %v, want [%d %d]", got, body, exit)
	}
	if got := c.Preds[head]; len(got) != 2 {
		t.Fatalf("head preds = %v, want entry+body", got)
	}
	rpo := c.ReversePostorder()
	if len(rpo) != len(f.Blocks) || rpo[0] != 0 {
		t.Fatalf("rpo = %v", rpo)
	}
	if c.RPOIndex(head) >= c.RPOIndex(body) {
		t.Fatalf("rpo order: head %d not before body %d", c.RPOIndex(head), c.RPOIndex(body))
	}
	for b := range f.Blocks {
		if !c.Reachable(b) {
			t.Fatalf("block %d unexpectedly unreachable", b)
		}
	}
}

func TestDefUseChains(t *testing.T) {
	m := NewModule("du")
	b := NewFunc(m, "main", I64)
	x := b.Mov(Const(3))
	y := b.Bin(BinAdd, x, x)
	b.Ret(y)
	f := m.Func("main")
	du := BuildDefUse(f)
	if len(du.Defs[x.Reg]) != 1 || du.Defs[x.Reg][0] != (SiteRef{Block: 0, Index: 0}) {
		t.Fatalf("defs of %%r%d = %v", x.Reg, du.Defs[x.Reg])
	}
	if len(du.Uses[x.Reg]) != 2 {
		t.Fatalf("uses of %%r%d = %v, want 2 (both add operands)", x.Reg, du.Uses[x.Reg])
	}
	if len(du.Uses[y.Reg]) != 1 || du.Uses[y.Reg][0].Index != 2 {
		t.Fatalf("uses of %%r%d = %v", y.Reg, du.Uses[y.Reg])
	}
}

// Two definitions of one name must be rejected: the VM binds a call to
// the last definition while Module.Func returns the first, and the
// analysis keys its per-function state by name.
func TestValidateRejectsDuplicateNames(t *testing.T) {
	m := NewModule("dup")
	for i := 0; i < 2; i++ {
		b := NewFunc(m, "f", I64)
		b.Ret(Const(int64(i)))
	}
	b := NewFunc(m, "main", I64)
	b.Ret(b.Call("f"))
	m.Globals = append(m.Globals, &GlobalDef{Name: "g", Size: 8}, &GlobalDef{Name: "g", Size: 16})
	probs := problemsOf(t, m)
	want := []string{"@f: duplicate function", "@g: duplicate global"}
	if strings.Join(probs, "\n") != strings.Join(want, "\n") {
		t.Fatalf("problems = %q, want %q", probs, want)
	}
}

// TestValidateRejectsHugeNumRegs: a Go-built function whose NumRegs is
// above MaxRegs fails with ErrTooManyRegs before validateFlow sizes its
// def-use tables by it; one at MaxRegs validates.
func TestValidateRejectsHugeNumRegs(t *testing.T) {
	m := NewModule("regs")
	b := NewFunc(m, "main", I64)
	b.Ret(Const(0))
	b.Fn.NumRegs = 400_000_001
	err := Validate(m)
	if !errors.Is(err, ErrTooManyRegs) {
		t.Fatalf("Validate = %v, want ErrTooManyRegs", err)
	}
	b.Fn.NumRegs = MaxRegs
	if err := Validate(m); err != nil {
		t.Fatalf("Validate at NumRegs = MaxRegs: %v", err)
	}
}

// TestParseRejectsHugeRegister: a destination or operand register at or
// above MaxRegs is a ParseError wrapping ErrTooManyRegs, naming its line.
func TestParseRejectsHugeRegister(t *testing.T) {
	for _, line := range []string{"%r65536 = add 1, 2", "%r0 = add %r65536, 2"} {
		_, err := Parse("func @main() i64 {\nentry:\n  " + line + "\n  ret 0\n}\n")
		var pe *ParseError
		if !errors.Is(err, ErrTooManyRegs) || !errors.As(err, &pe) || pe.Line != 3 {
			t.Fatalf("%q: Parse = %v, want ErrTooManyRegs at line 3", line, err)
		}
	}
}

// TestValidateRejectsNonScalarAccess: a load or store of a struct, an
// array, void, an odd-width integer or no type at all fails with
// ErrAccessType; every integer, f64 and pointer type validates.
func TestValidateRejectsNonScalarAccess(t *testing.T) {
	st := NewStruct("S", Field{Name: "a", Type: I64}, Field{Name: "b", Type: I64})
	access := func(ty Type, store bool) error {
		m := NewModule("access")
		m.MustStruct(st)
		if _, err := m.AddGlobal("g", 16, nil); err != nil {
			t.Fatal(err)
		}
		b := NewFunc(m, "main", I64)
		if store {
			b.Store(I64, Const(1), Global("g"))
			b.Ret(Const(0))
		} else {
			b.Ret(b.Load(I64, Global("g")))
		}
		b.Fn.Blocks[0].Instrs[0].Type = ty
		return Validate(m)
	}
	for _, ty := range []Type{st, ArrayOf(I8, 3), ArrayOf(I64, 1), Void, IntType{Bits: 24}, nil} {
		for _, store := range []bool{false, true} {
			if err := access(ty, store); !errors.Is(err, ErrAccessType) {
				t.Errorf("type %v (store %v): Validate = %v, want ErrAccessType", ty, store, err)
			}
		}
	}
	for _, ty := range []Type{I8, I16, I32, I64, F64, Raw, Fptr, PtrTo(st)} {
		for _, store := range []bool{false, true} {
			if err := access(ty, store); err != nil {
				t.Errorf("type %v (store %v): Validate = %v", ty, store, err)
			}
		}
	}
}

// TestValidateRejectsDestOnVoidOp: a destination register on an op that
// defines none fails with ErrOperands (TestOperandShapes in internal/vm
// covers every such op). The module below used to validate, and the
// engines disagreed on it: register allocation took the store's %r0 for
// a definition, so the bytecode engine returned 11 and the reference
// tree-walker 0.
func TestValidateRejectsDestOnVoidOp(t *testing.T) {
	m, err := Parse(`module "m"

func @main() i64 {
entry:
  %r1 = add 5, 6
  %r5 = mov %r1
  %r2 = local i64
  %r0 = store i64 7, %r2
  %r3 = add %r0, 0
  ret %r3
}
`)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(m); !errors.Is(err, ErrOperands) || !strings.Contains(err.Error(), "destination %r0 on an op that defines no register") {
		t.Fatalf("Validate = %v, want ErrOperands naming the store's destination", err)
	}
}
