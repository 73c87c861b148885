package vm

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"polar/internal/instrument"
	"polar/internal/ir"
	"polar/internal/telemetry/profile"
	"polar/internal/workload"
)

// TestLoweringDeterministic: compiling the same module twice must
// produce byte-identical lowered code (equal Fingerprint). Fusion,
// constant pooling and register allocation are all pure functions of
// the module — any map-iteration or timestamp dependence in the
// pipeline would show up here.
func TestLoweringDeterministic(t *testing.T) {
	a, err := Compile(richModule(t))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compile(richModule(t))
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Errorf("recompilation changed the lowered code: %016x vs %016x", a.Fingerprint(), b.Fingerprint())
	}
	// Sanity that the fingerprint discriminates at all: changing one
	// micro-op of a fused run must change it.
	for _, bf := range b.bcFuncs {
		for pc := range bf.code {
			if in := &bf.code[pc]; in.op == bcFused {
				in.micro[len(in.micro)-1].dest++
				if b.Fingerprint() == a.Fingerprint() {
					t.Errorf("a changed micro-op keeps fingerprint %016x — the digest is blind to fused runs", a.Fingerprint())
				}
				return
			}
		}
	}
	t.Fatal("the all-opcode module lowered no fused run")
}

// TestEnginesDifferentialUnderCompileOpts re-runs the engine
// differential on the default build: the lowered program must match
// the tree-walker result-for-result and stat-for-stat, the profiler's
// per-site cycle attribution must sum to Stats.Instructions exactly,
// and a sparse fuel sweep must agree at every sampled value (including
// the exhaustion boundary, where a fused run may be cut mid-sequence).
func TestEnginesDifferentialUnderCompileOpts(t *testing.T) {
	t.Run("static-fuse-all", func(t *testing.T) {
		m := richModule(t)
		prog, err := Compile(ir.Clone(m))
		if err != nil {
			t.Fatal(err)
		}
		runBC := func(extra ...Option) (*VM, int64, error) {
			v, err := prog.NewInstance(append([]Option{WithInput([]byte{9, 8, 7})}, extra...)...)
			if err != nil {
				t.Fatal(err)
			}
			r, runErr := v.Run(5)
			return v, r, runErr
		}
		runLegacy := func(extra ...Option) (*VM, int64, error) {
			return runEngine(t, m, reference, append([]Option{WithInput([]byte{9, 8, 7})}, extra...), 5)
		}

		// Full run: result, stats, output and profiler attribution.
		pb, pl := profile.NewSiteProfiler(), profile.NewSiteProfiler()
		vb, rb, eb := runBC(WithProfiler(pb))
		vl, rl, el := runLegacy(WithProfiler(pl))
		if eb != nil || el != nil {
			t.Fatalf("errors: bytecode=%v reference=%v", eb, el)
		}
		if rb != rl || vb.Stats != vl.Stats || string(vb.Output()) != string(vl.Output()) {
			t.Fatalf("engines diverge: result %d/%d stats\n%+v\n%+v", rb, rl, vb.Stats, vl.Stats)
		}
		if cycles, _, _ := pb.Totals(); cycles != vb.Stats.Instructions {
			t.Fatalf("profiled cycles %d != executed instructions %d", cycles, vb.Stats.Instructions)
		}
		if !reflect.DeepEqual(pb.Snapshot(), pl.Snapshot()) {
			t.Fatal("per-site profiles differ")
		}

		// Sparse fuel sweep: every 17th value plus the boundary region,
		// enough to land inside fused runs of any length.
		total := vb.Stats.Instructions
		var fuels []uint64
		for f := uint64(1); f < total; f += 17 {
			fuels = append(fuels, f)
		}
		fuels = append(fuels, total-1, total, total+1)
		for _, fuel := range fuels {
			fb, frb, feb := runBC(WithFuel(fuel))
			fl, frl, fel := runLegacy(WithFuel(fuel))
			if (feb == nil) != (fel == nil) || (feb != nil && feb.Error() != fel.Error()) {
				t.Fatalf("fuel=%d: errors differ:\nbytecode:  %v\nreference: %v", fuel, feb, fel)
			}
			if frb != frl || fb.Stats != fl.Stats {
				t.Fatalf("fuel=%d: engines diverge: %d/%d\n%+v\n%+v", fuel, frb, frl, fb.Stats, fl.Stats)
			}
		}
	})
}

// checkOneForm checks that straight-line code has one lowered form in
// every function of p: every fusableIR source instruction is a micro of
// a bcFused run, no other opcode holds one, and the function dispatches
// once per non-fusable instruction and once per maximal fusable run.
func checkOneForm(p *Program) error {
	for fi, f := range p.mod.Funcs {
		bf := p.bcFuncs[fi]
		want := 0
		for bi, blk := range f.Blocks {
			for ii := 0; ii < len(blk.Instrs); ii++ {
				if !fusableIR(blk.Instrs[ii].Op) || ii == 0 || !fusableIR(blk.Instrs[ii-1].Op) {
					want++
				}
			}
			// Walk the block's lowered code, pricing each instruction's
			// source span by its weight.
			end := int32(len(bf.code))
			if bi+1 < len(bf.blocks) {
				end = bf.blocks[bi+1].start
			}
			src := 0
			for pc := bf.blocks[bi].start; pc < end; pc++ {
				in := &bf.code[pc]
				for k := 0; k < int(in.weight()); k++ {
					sin := &blk.Instrs[src+k]
					if fusableIR(sin.Op) != (in.op == bcFused) {
						return fmt.Errorf("@%s.%s: %q lowered to opcode %d", f.Name, blk.Name, ir.FormatInstr(f, sin), in.op)
					}
				}
				src += int(in.weight())
			}
			if src != len(blk.Instrs) {
				return fmt.Errorf("@%s.%s: lowered code covers %d of %d instructions", f.Name, blk.Name, src, len(blk.Instrs))
			}
		}
		if len(bf.code) != want {
			return fmt.Errorf("@%s: %d dispatches, want %d (non-fusable instructions plus maximal fusable runs)", f.Name, len(bf.code), want)
		}
	}
	return nil
}

// TestLoweringOneForm holds every workload, the quickstart and every
// case study, baseline and hardened, to checkOneForm.
func TestLoweringOneForm(t *testing.T) {
	type named struct {
		name string
		m    *ir.Module
	}
	var mods []named
	for _, w := range workload.All() {
		mods = append(mods, named{w.Name, w.Module})
	}
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "casestudies", "*.ir"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range append([]string{filepath.Join("..", "..", "examples", "quickstart", "quickstart.ir")}, files...) {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		m, err := ir.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		mods = append(mods, named{strings.TrimSuffix(filepath.Base(path), ".ir"), m})
	}
	for _, nm := range mods {
		ins, err := instrument.Apply(ir.Clone(nm.m), nil)
		if err != nil {
			t.Fatalf("%s: %v", nm.name, err)
		}
		for _, v := range []struct {
			variant string
			m       *ir.Module
		}{{"baseline", ir.Clone(nm.m)}, {"hardened", ins.Module}} {
			p, err := Compile(v.m)
			if err != nil {
				t.Fatalf("%s %s: %v", nm.name, v.variant, err)
			}
			if err := checkOneForm(p); err != nil {
				t.Errorf("%s %s: %v", nm.name, v.variant, err)
			}
		}
	}
}
