package core_test

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"polar/internal/classinfo"
	"polar/internal/core"
	"polar/internal/instrument"
	"polar/internal/ir"
	"polar/internal/layout"
	"polar/internal/vm"
)

// buildPeopleModule constructs the paper's Fig. 1 example: a People
// class with a vtable pointer, age and height, allocated on the heap,
// written through fieldptr and read back.
func buildPeopleModule(t testing.TB) *ir.Module {
	t.Helper()
	m := ir.NewModule("people")
	people := m.MustStruct(ir.NewStruct("People",
		ir.Field{Name: "vtable", Type: ir.Fptr},
		ir.Field{Name: "age", Type: ir.I32},
		ir.Field{Name: "height", Type: ir.I32},
	))
	b := ir.NewFunc(m, "main", ir.I64)
	p := b.Alloc(people)
	hf := b.FieldPtrName(people, p, "height")
	b.Store(ir.I32, ir.Const(17), hf)
	af := b.FieldPtrName(people, p, "age")
	b.Store(ir.I32, ir.Const(42), af)
	h := b.Load(ir.I32, b.FieldPtrName(people, p, "height"))
	a := b.Load(ir.I32, b.FieldPtrName(people, p, "age"))
	sum := b.Bin(ir.BinAdd, h, a)
	b.Free(p)
	b.Ret(sum)
	if err := ir.Validate(m); err != nil {
		t.Fatalf("module invalid: %v", err)
	}
	return m
}

func hardened(t testing.TB, m *ir.Module, seed int64) (*vm.VM, *core.Runtime) {
	t.Helper()
	res, err := instrument.Apply(m, nil)
	if err != nil {
		t.Fatalf("instrument: %v", err)
	}
	v, err := vm.New(res.Module)
	if err != nil {
		t.Fatalf("vm: %v", err)
	}
	rt := core.New(res.Table, core.DefaultConfig(seed))
	rt.Attach(v)
	return v, rt
}

func TestEndToEndSameResult(t *testing.T) {
	m := buildPeopleModule(t)

	base, err := vm.New(ir.Clone(m))
	if err != nil {
		t.Fatalf("vm: %v", err)
	}
	want, err := base.Run()
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	if want != 59 {
		t.Fatalf("baseline result = %d, want 59", want)
	}

	for seed := int64(1); seed <= 20; seed++ {
		v, _ := hardened(t, m, seed)
		got, err := v.Run()
		if err != nil {
			t.Fatalf("seed %d: hardened run: %v", seed, err)
		}
		if got != want {
			t.Fatalf("seed %d: hardened result = %d, want %d", seed, got, want)
		}
	}
}

func TestPerAllocationLayoutsDiffer(t *testing.T) {
	// Allocate many instances of the same type in one run and check the
	// layouts are not all identical — the property OLR lacks (§III.B).
	m := ir.NewModule("multi")
	obj := m.MustStruct(ir.NewStruct("Obj",
		ir.Field{Name: "fp", Type: ir.Fptr},
		ir.Field{Name: "a", Type: ir.I64},
		ir.Field{Name: "b", Type: ir.I64},
		ir.Field{Name: "c", Type: ir.I32},
		ir.Field{Name: "d", Type: ir.I32},
	))
	bd := ir.NewFunc(m, "main", ir.I64)
	keep := bd.Local(ir.ArrayOf(ir.I64, 64))
	bd.CountedLoop("alloc", ir.Const(64), func(i ir.Value) {
		p := bd.Alloc(obj)
		slot := bd.ElemPtr(ir.I64, keep, i)
		bd.Store(ir.I64, p, slot)
	})
	bd.Ret(ir.Const(0))

	res, err := instrument.Apply(m, nil)
	if err != nil {
		t.Fatalf("instrument: %v", err)
	}
	v, err := vm.New(res.Module)
	if err != nil {
		t.Fatalf("vm: %v", err)
	}
	rt := core.New(res.Table, core.DefaultConfig(7))
	rt.Attach(v)
	if _, err := v.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}

	st := rt.Stats()
	if st.Allocs != 64 {
		t.Fatalf("allocs = %d, want 64", st.Allocs)
	}
	// The metadata store should show fewer unique layouts than
	// registrations only by chance; with 6-7 items the space is huge.
	if st.Meta.LayoutsUnique < 16 {
		t.Errorf("unique layouts = %d; per-allocation randomization looks broken", st.Meta.LayoutsUnique)
	}
}

func TestBoobyTrapDetectsOverflow(t *testing.T) {
	// Linear overflow from a buffer member into the object must corrupt
	// the canary in front of the function pointer with high probability.
	m := ir.NewModule("overflow")
	victim := m.MustStruct(ir.NewStruct("Victim",
		ir.Field{Name: "buf", Type: ir.ArrayOf(ir.I8, 16)},
		ir.Field{Name: "handler", Type: ir.Fptr},
	))
	bd := ir.NewFunc(m, "main", ir.I64)
	p := bd.Alloc(victim)
	bufp := bd.FieldPtrName(victim, p, "buf")
	// Overflow: write 64 bytes of 0x41 from the buffer start.
	bd.Memset(bufp, ir.Const(0x41), ir.Const(64))
	bd.Free(p) // trap check happens here
	bd.Ret(ir.Const(0))

	detected := 0
	for seed := int64(1); seed <= 30; seed++ {
		v, rt := hardened(t, m, seed)
		_, err := v.Run()
		if err != nil {
			var viol *core.Violation
			if !errors.As(err, &viol) {
				t.Fatalf("seed %d: unexpected error: %v", seed, err)
			}
			if viol.Kind != core.ViolationTrap {
				t.Fatalf("seed %d: violation kind = %v, want trap", seed, viol.Kind)
			}
			detected++
		}
		_ = rt
	}
	if detected == 0 {
		t.Fatal("overflow never detected by booby traps across 30 seeds")
	}
}

func TestUseAfterFreeDetected(t *testing.T) {
	m := ir.NewModule("uaf")
	obj := m.MustStruct(ir.NewStruct("S",
		ir.Field{Name: "x", Type: ir.I64},
		ir.Field{Name: "y", Type: ir.I64},
	))
	bd := ir.NewFunc(m, "main", ir.I64)
	p := bd.Alloc(obj)
	bd.Free(p)
	f := bd.FieldPtrName(obj, p, "y") // dangling access
	v := bd.Load(ir.I64, f)
	bd.Ret(v)

	vmach, _ := hardened(t, m, 3)
	_, err := vmach.Run()
	var viol *core.Violation
	if !errors.As(err, &viol) {
		t.Fatalf("expected violation, got %v", err)
	}
	if viol.Kind != core.ViolationUAF {
		t.Fatalf("violation kind = %v, want use-after-free", viol.Kind)
	}
}

func TestDoubleFreeDetected(t *testing.T) {
	m := ir.NewModule("df")
	obj := m.MustStruct(ir.NewStruct("S", ir.Field{Name: "x", Type: ir.I64}))
	bd := ir.NewFunc(m, "main", ir.I64)
	p := bd.Alloc(obj)
	bd.Free(p)
	bd.Free(p)
	bd.Ret(ir.Const(0))

	v, _ := hardened(t, m, 3)
	_, err := v.Run()
	var viol *core.Violation
	if !errors.As(err, &viol) {
		t.Fatalf("expected violation, got %v", err)
	}
	if viol.Kind != core.ViolationDoubleFree {
		t.Fatalf("violation kind = %v, want double-free", viol.Kind)
	}
}

func TestMemcpyRerandomizesCopy(t *testing.T) {
	// Copy an object into a raw chunk; the copy must become a tracked,
	// independently-randomized object whose members read back correctly.
	m := ir.NewModule("copy")
	obj := m.MustStruct(ir.NewStruct("S",
		ir.Field{Name: "a", Type: ir.I64},
		ir.Field{Name: "b", Type: ir.I64},
		ir.Field{Name: "c", Type: ir.I64},
	))
	bd := ir.NewFunc(m, "main", ir.I64)
	src := bd.Alloc(obj)
	bd.Store(ir.I64, ir.Const(111), bd.FieldPtrName(obj, src, "a"))
	bd.Store(ir.I64, ir.Const(222), bd.FieldPtrName(obj, src, "b"))
	bd.Store(ir.I64, ir.Const(333), bd.FieldPtrName(obj, src, "c"))
	dst := bd.Alloc(ir.ArrayOf(ir.I8, 96)) // raw chunk, big enough
	bd.Memcpy(dst, src, ir.Const(int64(obj.Size())))
	// Read the copy's fields through the instrumented path: mov dst to a
	// struct-typed use by calling fieldptr on it directly.
	c := bd.Load(ir.I64, bd.FieldPtrName(obj, dst, "c"))
	b2 := bd.Load(ir.I64, bd.FieldPtrName(obj, dst, "b"))
	sum := bd.Bin(ir.BinAdd, c, b2)
	bd.Ret(sum)

	for seed := int64(1); seed <= 10; seed++ {
		v, rt := hardened(t, m, seed)
		got, err := v.Run()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got != 555 {
			t.Fatalf("seed %d: got %d, want 555", seed, got)
		}
		if rt.Stats().Memcpys != 1 {
			t.Fatalf("seed %d: memcpys = %d, want 1", seed, rt.Stats().Memcpys)
		}
	}
}

func TestStaticFallbackForStackObjects(t *testing.T) {
	// A stack instance of a randomized class is not heap-tracked; the
	// instrumented getptr must fall back to the static layout.
	m := ir.NewModule("stack")
	obj := m.MustStruct(ir.NewStruct("S",
		ir.Field{Name: "a", Type: ir.I64},
		ir.Field{Name: "b", Type: ir.I64},
	))
	bd := ir.NewFunc(m, "main", ir.I64)
	p := bd.Local(obj)
	bd.Store(ir.I64, ir.Const(5), bd.FieldPtrName(obj, p, "b"))
	v := bd.Load(ir.I64, bd.FieldPtrName(obj, p, "b"))
	bd.Ret(v)

	vmach, _ := hardened(t, m, 9)
	got, err := vmach.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if got != 5 {
		t.Fatalf("got %d, want 5", got)
	}
}

func TestCacheHitsAccumulate(t *testing.T) {
	m := ir.NewModule("cache")
	obj := m.MustStruct(ir.NewStruct("S",
		ir.Field{Name: "a", Type: ir.I64},
		ir.Field{Name: "n", Type: ir.I64},
	))
	bd := ir.NewFunc(m, "main", ir.I64)
	p := bd.Alloc(obj)
	bd.Store(ir.I64, ir.Const(0), bd.FieldPtrName(obj, p, "n"))
	bd.CountedLoop("hot", ir.Const(1000), func(i ir.Value) {
		f := bd.FieldPtrName(obj, p, "n")
		v := bd.Load(ir.I64, f)
		bd.Store(ir.I64, bd.Bin(ir.BinAdd, v, ir.Const(1)), f)
	})
	r := bd.Load(ir.I64, bd.FieldPtrName(obj, p, "n"))
	bd.Ret(r)

	v, rt := hardened(t, m, 4)
	got, err := v.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if got != 1000 {
		t.Fatalf("got %d, want 1000", got)
	}
	st := rt.Stats()
	if st.CacheHits == 0 {
		t.Fatal("no cache hits recorded in hot member-access loop")
	}
	if st.CacheHits+st.CacheMisses != st.MemberAccess {
		t.Fatalf("hits(%d)+misses(%d) != accesses(%d)", st.CacheHits, st.CacheMisses, st.MemberAccess)
	}
}

func TestLayoutEntropyPositive(t *testing.T) {
	bits := layout.EntropyBits(6, 1, layout.DefaultConfig())
	if bits < 8 {
		t.Fatalf("entropy = %f bits for 6-field class, want >= 8", bits)
	}
}

func TestClassHashStability(t *testing.T) {
	a := ir.NewStruct("X", ir.Field{Name: "p", Type: ir.Fptr}, ir.Field{Name: "v", Type: ir.I32})
	b := ir.NewStruct("X", ir.Field{Name: "p", Type: ir.Fptr}, ir.Field{Name: "v", Type: ir.I32})
	c := ir.NewStruct("Y", ir.Field{Name: "p", Type: ir.Fptr}, ir.Field{Name: "v", Type: ir.I32})
	if classinfo.HashOf(a) != classinfo.HashOf(b) {
		t.Error("identical declarations must hash equal")
	}
	if classinfo.HashOf(a) == classinfo.HashOf(c) {
		t.Error("different class names must hash differently")
	}
}

// TestNegativeMemcpyLengthTransparent is the regression test for a
// memcpy whose length is negative: both engines clamp it to 0, and the
// hardened olr_memcpy must too, in both layout modes — the same
// result as the baseline, with no panic.
func TestNegativeMemcpyLengthTransparent(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "negmemcpy.ir"))
	if err != nil {
		t.Fatal(err)
	}
	m, err := ir.Parse(string(src))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	base, err := vm.New(ir.Clone(m))
	if err != nil {
		t.Fatalf("vm: %v", err)
	}
	want, err := base.Run()
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	if want != 7 {
		t.Fatalf("baseline result = %d, want 7", want)
	}
	for _, mode := range []core.LayoutMode{core.LayoutModeMetadata, core.LayoutModeStateless} {
		res, err := instrument.Apply(ir.Clone(m), nil)
		if err != nil {
			t.Fatalf("instrument: %v", err)
		}
		v, err := vm.New(res.Module)
		if err != nil {
			t.Fatalf("vm: %v", err)
		}
		cfg := core.DefaultConfig(1)
		cfg.LayoutMode = mode
		rt := core.New(res.Table, cfg)
		rt.Attach(v)
		got, err := v.Run()
		if err != nil {
			t.Fatalf("%v: hardened run: %v", mode, err)
		}
		if got != want {
			t.Fatalf("%v: hardened result = %d, want %d", mode, got, want)
		}
		if st := rt.Stats(); st.Memcpys != 1 {
			t.Fatalf("%v: olr_memcpy ran %d times, want 1 (was the copy instrumented?)", mode, st.Memcpys)
		}
	}
}
