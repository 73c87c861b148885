package core_test

import (
	"errors"
	"math/rand"
	"testing"

	"polar/internal/core"
	"polar/internal/instrument"
	"polar/internal/ir"
	"polar/internal/layout"
	"polar/internal/vm"
)

func buildIntegrityModule(t *testing.T) *ir.Module {
	t.Helper()
	m := ir.NewModule("integrity")
	st := m.MustStruct(ir.NewStruct("S",
		ir.Field{Name: "a", Type: ir.I64},
		ir.Field{Name: "b", Type: ir.I64},
	))
	b := ir.NewFunc(m, "main", ir.I64)
	p := b.Alloc(st)
	b.Store(ir.I64, ir.Const(5), b.FieldPtrName(st, p, "a"))
	b.CallVoid("taint_poke") // hook point: the test corrupts here
	v := b.Load(ir.I64, b.FieldPtrName(st, p, "a"))
	b.Free(p)
	b.Ret(v)
	return m
}

// TestMetadataIntegrityDetectsCorruption models the §VI.A attack: a
// "logical bug" rewrites an object's metadata record mid-execution.
// With MetadataIntegrity on, the next lookup flags the forged record.
func TestMetadataIntegrityDetectsCorruption(t *testing.T) {
	m := buildIntegrityModule(t)
	ins, err := instrument.Apply(m, nil)
	if err != nil {
		t.Fatal(err)
	}

	forged, err := layout.Generate(
		[]layout.FieldInfo{{Size: 8, Align: 8}, {Size: 8, Align: 8}},
		layout.Config{Mode: layout.ModeIdentity}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}

	run := func(integrity bool) error {
		v, err := vm.New(ir.Clone(ins.Module))
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.DefaultConfig(7)
		cfg.MetadataIntegrity = integrity
		rt := core.New(ins.Table, cfg)
		rt.Attach(v)
		// taint_poke corrupts the (single) live object's metadata.
		v.RegisterBuiltin("taint_poke", func(c *vm.Call) (int64, error) {
			base := uint64(vm.HeapBase)
			if !rt.CorruptMetadataForTest(base, forged) {
				t.Fatal("no object at heap base to corrupt")
			}
			return 0, nil
		})
		_, err = v.Run()
		return err
	}

	// Integrity ON: the forged record is detected at the next access.
	err = run(true)
	var viol *core.Violation
	if !errors.As(err, &viol) {
		t.Fatalf("integrity on: want violation, got %v", err)
	}
	if viol.Kind != core.ViolationMetadata {
		t.Fatalf("violation kind = %v, want metadata-corruption", viol.Kind)
	}

	// Integrity OFF (the paper's current state): the forged layout is
	// silently used — the program still runs (identity layout resolves
	// field 0 to offset 0, which may or may not hold 5), demonstrating
	// the §VI.A exposure.
	if err := run(false); err != nil {
		var v2 *core.Violation
		if errors.As(err, &v2) && v2.Kind == core.ViolationMetadata {
			t.Fatal("integrity off but corruption was flagged")
		}
		// Other faults are acceptable: the forged layout can point reads
		// anywhere.
	}
}

// TestMetadataIntegrityNoFalsePositives: a clean run under integrity
// mode behaves exactly like the default across many seeds.
func TestMetadataIntegrityNoFalsePositives(t *testing.T) {
	m := buildIntegrityModule(t)
	ins, err := instrument.Apply(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 15; seed++ {
		v, err := vm.New(ir.Clone(ins.Module))
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.DefaultConfig(seed)
		cfg.MetadataIntegrity = true
		rt := core.New(ins.Table, cfg)
		rt.Attach(v)
		v.RegisterBuiltin("taint_poke", func(c *vm.Call) (int64, error) { return 0, nil })
		got, err := v.Run()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got != 5 {
			t.Fatalf("seed %d: result %d, want 5", seed, got)
		}
		if rt.ViolationCount(core.ViolationMetadata) != 0 {
			t.Fatalf("seed %d: spurious metadata violation", seed)
		}
	}
}

// TestMetadataIntegrityNotHiddenByLayoutCache: one site reads p->a in a
// six-trip loop and the record is corrupted at trip 3. The corruption
// invalidates the object's layout-cache entries, so the forged record
// is caught at the very next access (@main.poke.join) whether or not
// the dispatch loops read the cache, not at the free after the loop.
func TestMetadataIntegrityNotHiddenByLayoutCache(t *testing.T) {
	m := ir.NewModule("integrityloop")
	st := m.MustStruct(ir.NewStruct("S",
		ir.Field{Name: "a", Type: ir.I64},
		ir.Field{Name: "b", Type: ir.I64},
	))
	b := ir.NewFunc(m, "main", ir.I64)
	sum := b.Local(ir.I64)
	b.Store(ir.I64, ir.Const(0), sum)
	p := b.Alloc(st)
	b.Store(ir.I64, ir.Const(5), b.FieldPtrName(st, p, "a"))
	b.CountedLoop("loop", ir.Const(6), func(i ir.Value) {
		b.If("poke", b.Cmp(ir.CmpEq, i, ir.Const(3)), func() { b.CallVoid("taint_poke") }, nil)
		v := b.Load(ir.I64, b.FieldPtrName(st, p, "a"))
		b.Store(ir.I64, b.Bin(ir.BinAdd, b.Load(ir.I64, sum), v), sum)
	})
	b.Free(p)
	b.Ret(b.Load(ir.I64, sum))
	ins, err := instrument.Apply(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	forged, err := layout.Generate(
		[]layout.FieldInfo{{Size: 8, Align: 8}, {Size: 8, Align: 8}},
		layout.Config{Mode: layout.ModeIdentity}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	for _, read := range []bool{true, false} {
		v, err := vm.New(ir.Clone(ins.Module))
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.DefaultConfig(7)
		cfg.MetadataIntegrity = true
		rt := core.New(ins.Table, cfg)
		rt.Attach(v)
		if !read {
			v.InstallLayoutCache(nil, nil)
		}
		v.RegisterBuiltin("taint_poke", func(c *vm.Call) (int64, error) {
			if !rt.CorruptMetadataForTest(uint64(vm.HeapBase), forged) {
				t.Fatal("no object at heap base to corrupt")
			}
			return 0, nil
		})
		_, err = v.Run()
		var viol *core.Violation
		if !errors.As(err, &viol) || viol.Kind != core.ViolationMetadata {
			t.Fatalf("cache read %v: want a metadata-corruption violation, got %v", read, err)
		}
		if viol.Site != "@main.poke.join" {
			t.Errorf("cache read %v: violation at %s, want the next access at @main.poke.join", read, viol.Site)
		}
	}
}
