package vm

import (
	"testing"

	"polar/internal/ir"
)

func TestShadowMemRanges(t *testing.T) {
	var s shadowMem
	s.setRange(100, 8, 1)
	if got := s.rangeOr(96, 16); got != 1 {
		t.Fatalf("rangeOr = %d", got)
	}
	if got := s.rangeOr(108, 8); got != 0 {
		t.Fatalf("clean range = %d", got)
	}
	if got := s.copyRange(200, 100, 8); got != 1 || s.rangeOr(200, 8) != 1 || s.rangeOr(199, 1) != 0 || s.rangeOr(208, 1) != 0 {
		t.Fatalf("copied labels: copy %d, range %d", got, s.rangeOr(200, 8))
	}
	// Overlapping copies keep memmove semantics in both directions.
	s.setRange(300, 4, 1)
	s.copyRange(302, 300, 8) // labels 1 1 1 1 0 0 0 0 land at 302
	for i, want := range []byte{1, 1, 1, 1, 1, 1, 0, 0, 0, 0} {
		if got := s.rangeOr(300+uint64(i), 1); got != want {
			t.Fatalf("forward overlap: byte %d = %d, want %d", i, got, want)
		}
	}
	s.copyRange(300, 302, 8)
	for i, want := range []byte{1, 1, 1, 1, 0, 0, 0, 0, 0, 0} {
		if got := s.rangeOr(300+uint64(i), 1); got != want {
			t.Fatalf("backward overlap: byte %d = %d, want %d", i, got, want)
		}
	}
	// Cross-page ranges, set and cleared in one call.
	base := uint64(3*shadowPageSize - 4)
	s.setRange(base, 8, 1)
	if s.rangeOr(base, 8) != 1 || s.rangeOr(base+4, 4) != 1 || s.rangeOr(base+8, 8) != 0 {
		t.Fatal("cross-page range lost its labels")
	}
	s.setRange(base-16, 32, 0)
	if s.rangeOr(base, 8) != 0 {
		t.Fatal("cross-page clear left labels")
	}
	if s.rangeOr(100, 8) != 1 {
		t.Fatal("clearing one range touched another")
	}
}

// TestShadowAllocatesOnlyForLabels: only a non-zero label creates a
// shadow page. Reading or clearing memory that never held a label, and
// copying clean bytes into it, allocate nothing; a taint run that
// allocates, memsets and copies multi-MiB buffers it never taints ends
// with no shadow page at all.
func TestShadowAllocatesOnlyForLabels(t *testing.T) {
	var s shadowMem
	s.setRange(HeapBase, 8, 1) // one page exists, elsewhere
	const span = 3*shadowPageSize + 100
	untouched := uint64(StackBase + 5)
	allocs := testing.AllocsPerRun(100, func() {
		s.setRange(untouched, span, 0)
		s.setRange(untouched+8, 8, 0)
		if s.rangeOr(untouched, span) != 0 {
			t.Fatal("untouched memory reads labelled")
		}
		s.copyRange(untouched+span, untouched, span)
	})
	if allocs != 0 || len(s.pages) != 1 {
		t.Fatalf("clearing untouched memory: %.1f allocations per run, %d pages, want 0 and 1", allocs, len(s.pages))
	}

	m := ir.NewModule("clean")
	b := ir.NewFunc(m, "main", ir.I64)
	const n = 4 << 20
	buf := b.AllocN(ir.I8, ir.Const(n))
	b.Memset(buf, ir.Const(0x5a), ir.Const(n))
	dst := b.AllocN(ir.I8, ir.Const(n))
	b.Memcpy(dst, buf, ir.Const(n))
	b.Store(ir.I64, ir.Const(7), b.PtrAdd(dst, ir.Const(n/2)))
	x := b.Call("input_byte", ir.Const(0)) // tainted, never stored
	b.Ret(b.Bin(ir.BinAdd, x, b.Load(ir.I64, buf)))
	for _, input := range [][]byte{{1}, nil} {
		v, err := New(m, WithTaint(&RecordingSink{}), WithInput(input))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := v.Run(); err != nil {
			t.Fatal(err)
		}
		if len(v.shadow.pages) != 0 {
			t.Fatalf("input %v: %d shadow pages after a run that never stored a label, want 0", input, len(v.shadow.pages))
		}
	}
}
