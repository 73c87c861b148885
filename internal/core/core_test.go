package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"polar/internal/layout"
)

func genLayout(t testing.TB, seed int64) *layout.Layout {
	t.Helper()
	fields := []layout.FieldInfo{
		{Size: 8, Align: 8, IsFptr: true},
		{Size: 8, Align: 8},
		{Size: 4, Align: 4},
	}
	l, err := layout.Generate(fields, layout.DefaultConfig(), rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestMetaStoreRegisterLookupFree(t *testing.T) {
	s := NewMetaStore()
	l := genLayout(t, 1)
	m, old := s.Register(0x1000, 42, l, l.TotalSize)
	if old != nil {
		t.Fatal("fresh base reported an old record")
	}
	got, ok := s.Lookup(0x1000)
	if !ok || got != m || got.ClassHash != 42 {
		t.Fatalf("lookup = %+v %v", got, ok)
	}
	if s.LiveCount() != 1 {
		t.Fatalf("live = %d", s.LiveCount())
	}
	s.MarkFreed(0x1000)
	ghost, ok := s.Lookup(0x1000)
	if !ok || !ghost.Freed || ghost.Layout != l {
		t.Fatal("ghost record missing after MarkFreed")
	}
	if s.LiveCount() != 0 {
		t.Fatalf("live after free = %d", s.LiveCount())
	}
	// Re-registration replaces the ghost and reports the ghost's layout.
	l2 := genLayout(t, 2)
	_, old = s.Register(0x1000, 43, l2, l2.TotalSize)
	if old != l {
		t.Fatal("re-registration did not surface the ghost's layout")
	}
	st := s.Stats()
	if st.Registered != 2 || st.Retired != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestMetaStoreDrop(t *testing.T) {
	s := NewMetaStore()
	l := genLayout(t, 1)
	s.Register(0x2000, 1, l, l.TotalSize)
	s.Drop(0x2000)
	if _, ok := s.Lookup(0x2000); ok {
		t.Fatal("dropped record still present")
	}
}

func TestLayoutInterning(t *testing.T) {
	s := NewMetaStore()
	// The same layout content must intern to one canonical instance.
	a := genLayout(t, 7)
	b := genLayout(t, 7) // same seed => same content, distinct pointer
	if a == b {
		t.Fatal("fixture broken: same pointer")
	}
	ca := s.Intern(99, a)
	cb := s.Intern(99, b)
	if ca != cb {
		t.Fatal("equal layouts not deduplicated")
	}
	st := s.Stats()
	if st.LayoutsUnique != 1 || st.LayoutsShared != 1 {
		t.Fatalf("dedup stats = %+v", st)
	}
	// Same layout under a different class hash is a separate entry
	// (classes never share metadata records).
	cc := s.Intern(100, genLayout(t, 7))
	if cc == ca {
		t.Fatal("layouts shared across classes")
	}
}

// TestInternQuick: intern many random layouts; the canonical instance
// always compares Equal to the input, and interning is idempotent.
func TestInternQuick(t *testing.T) {
	s := NewMetaStore()
	prop := func(seed int64, class uint8) bool {
		l := genLayout(t, seed%50)
		c := s.Intern(uint64(class%4), l)
		if !c.Equal(l) {
			return false
		}
		return s.Intern(uint64(class%4), l) == c
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestViolationErrorShape(t *testing.T) {
	v := &Violation{Kind: ViolationTrap, Addr: 0xdead, Class: "X"}
	if v.Error() == "" {
		t.Fatal("empty error message")
	}
	for _, k := range []ViolationKind{ViolationTrap, ViolationUAF, ViolationDoubleFree, ViolationBadFree, ViolationBadClass, ViolationTypeConfusion} {
		if k.String() == "?" {
			t.Errorf("kind %d has no name", k)
		}
	}
}

// TestInternDuplicateAllocatesNothing: the hardened allocation path
// generates into one scratch layout and interns it. The interner copies
// a layout only the first time it sees it, so for a class with a single
// possible layout every later generate-and-intern allocates nothing,
// and the canonical layout is never the caller's buffer.
func TestInternDuplicateAllocatesNothing(t *testing.T) {
	fields := []layout.FieldInfo{{Size: 8, Align: 8}}
	cfg := layout.Config{Mode: layout.ModeFull}
	rng := rand.New(rand.NewSource(1))
	s := NewMetaStore()
	var scratch layout.Layout
	var canon *layout.Layout
	genIntern := func() {
		if err := layout.GenerateInto(&scratch, fields, cfg, rng); err != nil {
			t.Fatal(err)
		}
		canon = s.Intern(3, &scratch)
	}
	genIntern()
	first := canon
	if first == &scratch {
		t.Fatal("interner kept the caller's buffer")
	}
	if allocs := testing.AllocsPerRun(100, genIntern); allocs != 0 {
		t.Fatalf("duplicate generate+intern allocated %.1f times per call, want 0", allocs)
	}
	if canon != first {
		t.Fatal("duplicate layout interned to a new canonical instance")
	}
	if st := s.Stats(); st.LayoutsUnique != 1 || st.LayoutsShared != 101 {
		t.Fatalf("interner counted unique=%d shared=%d, want 1/101", st.LayoutsUnique, st.LayoutsShared)
	}
}
