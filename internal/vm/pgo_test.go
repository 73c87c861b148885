package vm

import (
	"reflect"
	"testing"

	"polar/internal/ir"
	"polar/internal/telemetry/profile"
)

// recordRichProfile runs the rich module once under the site profiler
// and distills the dynamic block weights into a PGO profile — the same
// path `polarun -pgo-record` takes.
func recordRichProfile(t *testing.T) *profile.PGO {
	t.Helper()
	p := profile.NewSiteProfiler()
	v := mustVM(t, richModule(t), WithProfiler(p), WithInput([]byte{9}))
	if _, err := v.Run(6); err != nil {
		t.Fatal(err)
	}
	pgo := p.ExportPGO()
	if len(pgo.Weights) == 0 {
		t.Fatal("profiler exported an empty profile")
	}
	return pgo
}

// compileVariants is the grid of optimization inputs the PGO tests
// sweep: the static default, generalized fusion off, a topK budget, a
// measured profile, and a profile under a budget.
func compileVariants(t *testing.T) map[string]CompileOpts {
	pgo := recordRichProfile(t)
	return map[string]CompileOpts{
		"static-fuse-all": {},
		"fusion-off":      {FusionTopK: -1},
		"static-top3":     {FusionTopK: 3},
		"profile-all":     {Profile: pgo},
		"profile-top2":    {Profile: pgo, FusionTopK: 2},
	}
}

// TestPGODeterministicLowering is the PGO-determinism gate's in-process
// form: compiling the same module under the same profile and topK twice
// must produce byte-identical lowered code (equal Fingerprint). The
// fusion plan, constant pooling and register allocation are all pure
// functions of (module, profile, topK) — any map-iteration or
// timestamp dependence in the pipeline would show up here.
func TestPGODeterministicLowering(t *testing.T) {
	prints := map[string]uint64{}
	for name, opts := range compileVariants(t) {
		a, err := CompileWith(richModule(t), opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := CompileWith(richModule(t), opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if a.Fingerprint() != b.Fingerprint() {
			t.Errorf("%s: recompilation changed the lowered code: %016x vs %016x",
				name, a.Fingerprint(), b.Fingerprint())
		}
		prints[name] = a.Fingerprint()
	}
	// Sanity that the fingerprint discriminates at all: turning
	// generalized fusion off replaces every bcFused run with classic
	// lowering, which must hash differently from the fuse-all default.
	if prints["static-fuse-all"] == prints["fusion-off"] {
		t.Errorf("fusion-off and fuse-all share fingerprint %016x — the digest is blind to fusion",
			prints["fusion-off"])
	}
}

// TestPGODefaultOptsApplied: Compile consults the process-default opts
// installed by SetDefaultPGO, and CompileWith ignores them.
func TestPGODefaultOptsApplied(t *testing.T) {
	defer SetDefaultPGO(DefaultPGO())
	base, err := Compile(richModule(t))
	if err != nil {
		t.Fatal(err)
	}
	SetDefaultPGO(CompileOpts{FusionTopK: -1})
	off, err := Compile(richModule(t))
	if err != nil {
		t.Fatal(err)
	}
	if base.Fingerprint() == off.Fingerprint() {
		t.Fatal("SetDefaultPGO(FusionTopK=-1) did not reach Compile")
	}
	explicit, err := CompileWith(richModule(t), CompileOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if explicit.Fingerprint() != base.Fingerprint() {
		t.Fatal("CompileWith consulted the process default instead of its argument")
	}
}

// TestEnginesDifferentialUnderCompileOpts re-runs the engine
// differential under every fusion configuration: whatever runs the
// selector picks, the lowered program must match the tree-walker
// result-for-result and stat-for-stat, the profiler's per-site cycle
// attribution must still sum to Stats.Instructions exactly, and a
// sparse fuel sweep must agree at every sampled value (including the
// exhaustion boundary, where a fused run may be cut mid-sequence).
func TestEnginesDifferentialUnderCompileOpts(t *testing.T) {
	for name, opts := range compileVariants(t) {
		opts := opts
		t.Run(name, func(t *testing.T) {
			m := richModule(t)
			prog, err := CompileWith(ir.Clone(m), opts)
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
				t.Fatalf("per-site profiles differ under %s", name)
			}

			// Sparse fuel sweep: every 17th value plus the boundary
			// region, enough to land inside fused runs of any length
			// without the full-sweep cost times five variants.
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
}
