package vm

import (
	"fmt"
	"testing"

	"polar/internal/ir"
)

// factsModule emits four olr_getptr call sites in main, the raw shape
// instrument.Apply produces, and returns the module plus each site's
// "@fn.block#idx" position in lowering order.
func factsModule(t *testing.T) (*ir.Module, []string) {
	t.Helper()
	m := ir.NewModule("facts")
	b := ir.NewFunc(m, "main", ir.I64)
	p := b.Call("olr_malloc", ir.Const(7))
	for i := 0; i < 4; i++ {
		b.Call("olr_getptr", p, ir.Const(int64(i)), ir.Const(7))
	}
	b.Ret(ir.Const(0))
	if err := ir.Validate(m); err != nil {
		t.Fatal(err)
	}
	var pos []string
	for _, f := range m.Funcs {
		for _, blk := range f.Blocks {
			for ii := range blk.Instrs {
				in := &blk.Instrs[ii]
				if in.Op == ir.OpCall && in.Callee == "olr_getptr" {
					pos = append(pos, fmt.Sprintf("@%s.%s#%d", f.Name, blk.Name, ii))
				}
			}
		}
	}
	if len(pos) != 4 {
		t.Fatalf("found %d olr_getptr sites, want 4", len(pos))
	}
	return m, pos
}

// getptrSites returns the compiled program's olr_getptr instructions in
// lowering order (pointers into p.mod, the module planICSites keyed).
func getptrSites(p *Program) []*ir.Instr {
	var out []*ir.Instr
	for _, f := range p.mod.Funcs {
		for _, blk := range f.Blocks {
			for ii := range blk.Instrs {
				in := &blk.Instrs[ii]
				if in.Op == ir.OpCall && in.Callee == olrGetptrName {
					out = append(out, in)
				}
			}
		}
	}
	return out
}

// Static facts drive the IC slot plan: a suppressed site gets no slot,
// share-keyed sites collapse onto one, everything else keeps a fresh
// private slot — and the slot count shrinks accordingly.
func TestPlanICSitesFromFacts(t *testing.T) {
	m, pos := factsModule(t)
	facts := &StaticFacts{Sites: map[string]SiteSeed{
		pos[0]: {Suppress: true},
		pos[1]: {ShareKey: "K"},
		pos[2]: {ShareKey: "K"},
		// pos[3]: no entry — default fresh slot.
	}}
	prog, err := CompileWith(m, CompileOpts{Facts: facts})
	if err != nil {
		t.Fatal(err)
	}
	sites := getptrSites(prog)
	if len(sites) != 4 {
		t.Fatalf("compiled program has %d sites, want 4", len(sites))
	}
	if prog.numICSites != 2 {
		t.Errorf("numICSites = %d, want 2 (one shared + one fresh)", prog.numICSites)
	}
	if _, ok := prog.icSlotOf[sites[0]]; ok {
		t.Errorf("suppressed site still has an IC slot")
	}
	s1, ok1 := prog.icSlotOf[sites[1]]
	s2, ok2 := prog.icSlotOf[sites[2]]
	if !ok1 || !ok2 || s1 != s2 {
		t.Errorf("share-keyed sites not unified: %v/%v %v/%v", s1, ok1, s2, ok2)
	}
	s3, ok3 := prog.icSlotOf[sites[3]]
	if !ok3 || s3 == s1 {
		t.Errorf("unlisted site should keep a private slot distinct from the shared one: %v/%v", s3, ok3)
	}
}

// Without facts the historical sequential numbering is untouched: one
// fresh slot per site, in lowering order.
func TestPlanICSitesDefaultSequential(t *testing.T) {
	m, _ := factsModule(t)
	prog, err := Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	if prog.numICSites != 4 {
		t.Errorf("numICSites = %d, want 4", prog.numICSites)
	}
	seen := map[int32]bool{}
	for i, in := range getptrSites(prog) {
		slot, ok := prog.icSlotOf[in]
		if !ok || slot != int32(i) || seen[slot] {
			t.Errorf("site %d: slot %v/%v, want fresh sequential", i, slot, ok)
		}
		seen[slot] = true
	}
}

// An empty facts table is not "no facts": the plan exists, every site
// falls through to the default arm, and numbering matches the
// sequential baseline — so a facts artifact for a module with no
// verdicts compiles byte-identically to an unseeded build.
func TestPlanICSitesEmptyFactsMatchesDefault(t *testing.T) {
	m, _ := factsModule(t)
	seeded, err := CompileWith(ir.Clone(m), CompileOpts{Facts: &StaticFacts{Sites: map[string]SiteSeed{}}})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := CompileWith(m, CompileOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if seeded.numICSites != plain.numICSites {
		t.Errorf("empty facts changed the slot count: %d vs %d", seeded.numICSites, plain.numICSites)
	}
	for i := range getptrSites(seeded) {
		ss := seeded.icSlotOf[getptrSites(seeded)[i]]
		ps := plain.icSlotOf[getptrSites(plain)[i]]
		if ss != ps {
			t.Errorf("site %d: slot %d under empty facts, %d unseeded", i, ss, ps)
		}
	}
}
