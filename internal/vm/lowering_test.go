package vm

import (
	"reflect"
	"testing"

	"polar/internal/ir"
	"polar/internal/telemetry/profile"
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
