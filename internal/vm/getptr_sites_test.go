package vm

import (
	"testing"

	"polar/internal/ir"
)

// TestPlanICSitesDefaultSequential: every olr_getptr call site gets its
// ordinal in lowering order, the mark that the dispatch loops may read
// the layout cache there.
func TestPlanICSitesDefaultSequential(t *testing.T) {
	m := ir.NewModule("sites")
	b := ir.NewFunc(m, "main", ir.I64)
	p := b.Call("olr_malloc", ir.Const(7))
	for i := 0; i < 4; i++ {
		b.Call("olr_getptr", p, ir.Const(int64(i)), ir.Const(7))
	}
	b.Ret(ir.Const(0))
	prog, err := Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	var sites []*ir.Instr
	for _, blk := range m.Funcs[0].Blocks {
		for ii := range blk.Instrs {
			if in := &blk.Instrs[ii]; in.Op == ir.OpCall && in.Callee == olrGetptrName {
				sites = append(sites, in)
			}
		}
	}
	if len(sites) != 4 || len(prog.getptrSites) != 4 {
		t.Fatalf("%d sites, %d numbered; want 4", len(sites), len(prog.getptrSites))
	}
	for i, in := range sites {
		if n, ok := prog.getptrSites[in]; !ok || n != int32(i) {
			t.Errorf("site %d: ordinal %d/%v, want sequential", i, n, ok)
		}
	}
}
