package core

import (
	"testing"

	"polar/internal/layout"
)

// quietHarness is newViolationHarness without telemetry, so the only Go
// allocations left on the olr_* paths are the runtime's own.
func quietHarness(t *testing.T, mod func(*Config)) *violationHarness {
	t.Helper()
	return newViolationHarness(t, func(c *Config) {
		c.Telemetry = nil
		if mod != nil {
			mod(c)
		}
	})
}

// TestStatelessRecycledObjectAllocatesNothing pins the stateless
// steady state: an olr_malloc on a recycled base, an olr_getptr that
// misses the memo and an olr_free allocate nothing, because every
// derivation lands in memo-slot storage (or, with the memo off, in the
// resolver's own layout) that an earlier object already warmed. With a
// one-slot memo a second live object evicts the new one before the
// access, so the access re-derives.
func TestStatelessRecycledObjectAllocatesNothing(t *testing.T) {
	for _, tc := range []struct {
		name      string
		cacheSize int
	}{
		{"memo1", 1},
		{"nomemo", -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := quietHarness(t, func(c *Config) {
				c.LayoutMode = LayoutModeStateless
				c.CacheSize = tc.cacheSize
			})
			s := h.r.resolver.(*statelessResolver)
			keep := h.alloc(h.hashA)
			first := uint64(0)
			cycle := func() {
				base := h.alloc(h.hashA)
				if first == 0 {
					first = base
				} else if base != first {
					t.Fatalf("base %#x not recycled (first %#x)", base, first)
				}
				if _, err := h.r.olrGetptr(h.v, keep, 1, h.hashA); err != nil {
					t.Fatalf("getptr keep: %v", err)
				}
				if s.memoHit(base, h.hashA) != nil {
					t.Fatal("access would hit the memo; the cycle must re-derive")
				}
				if _, err := h.r.olrGetptr(h.v, base, 2, h.hashA); err != nil {
					t.Fatalf("getptr: %v", err)
				}
				if err := h.r.olrFree(h.v, base); err != nil {
					t.Fatalf("free: %v", err)
				}
			}
			cycle()
			if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
				t.Fatalf("malloc/getptr/free on a recycled base allocated %.1f times per cycle, want 0", allocs)
			}
		})
	}
}

// TestStatelessSharedSlotMemcpyAllocatesNothing pins olr_memcpy between
// two live objects whose bases share the one memo slot: deriving the
// destination's layout reuses the slot the source's was derived into,
// so the source layout is first copied into resolver-owned storage. The
// copy must still move every member from the source's layout to the
// destination's, and a warm copy allocates nothing.
func TestStatelessSharedSlotMemcpyAllocatesNothing(t *testing.T) {
	h := quietHarness(t, func(c *Config) {
		c.LayoutMode = LayoutModeStateless
		c.CacheSize = 1
	})
	src, dst := h.alloc(h.hashA), h.alloc(h.hashA)
	srcAddrs := resolveAll(t, h, src, h.hashA, 3)
	dstAddrs := resolveAll(t, h, dst, h.hashA, 3)
	if srcAddrs[1]-int64(src) == dstAddrs[1]-int64(dst) && srcAddrs[2]-int64(src) == dstAddrs[2]-int64(dst) {
		t.Fatal("fixture: source and destination derived the same data offsets")
	}
	if err := h.v.Mem.WriteU(uint64(srcAddrs[1]), 8, 0x1111); err != nil {
		t.Fatal(err)
	}
	if err := h.v.Mem.WriteU(uint64(srcAddrs[2]), 4, 0x2222); err != nil {
		t.Fatal(err)
	}
	cls, _ := h.r.table.ByHash(h.hashA)
	size := h.r.resolver.(*statelessResolver).maxSize(cls)
	copyObj := func() {
		if err := h.r.olrMemcpy(h.v, dst, src, size, h.hashA); err != nil {
			t.Fatalf("memcpy: %v", err)
		}
	}
	copyObj()
	x, err := h.v.Mem.ReadU(uint64(dstAddrs[1]), 8)
	if err != nil {
		t.Fatal(err)
	}
	y, err := h.v.Mem.ReadU(uint64(dstAddrs[2]), 4)
	if err != nil {
		t.Fatal(err)
	}
	if x != 0x1111 || y != 0x2222 {
		t.Fatalf("copy through a shared memo slot read x=%#x y=%#x, want 0x1111 0x2222", x, y)
	}
	if allocs := testing.AllocsPerRun(100, copyObj); allocs != 0 {
		t.Fatalf("memcpy across a shared memo slot allocated %.1f times per call, want 0", allocs)
	}
}

// TestStatelessRerandomizeAllocatesNothing pins the epoch-rekey remap:
// a warm Rerandomize over live objects stages every member through one
// resolver-owned buffer and derives into warmed storage, so it
// allocates nothing, with the memo on or off.
func TestStatelessRerandomizeAllocatesNothing(t *testing.T) {
	for _, tc := range []struct {
		name      string
		cacheSize int
	}{
		{"memo", 0},
		{"nomemo", -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := quietHarness(t, func(c *Config) {
				c.LayoutMode = LayoutModeStateless
				c.CacheSize = tc.cacheSize
			})
			for i := 0; i < 6; i++ {
				h.alloc(h.hashA)
				h.alloc(h.hashB)
			}
			s := h.r.resolver.(*statelessResolver)
			rekey := func() {
				if _, err := s.Rerandomize(h.v); err != nil {
					t.Fatalf("Rerandomize: %v", err)
				}
			}
			rekey()
			if allocs := testing.AllocsPerRun(50, rekey); allocs != 0 {
				t.Fatalf("Rerandomize over 12 live objects allocated %.1f times per call, want 0", allocs)
			}
		})
	}
}

// TestMetadataReregisterAllocatesNothing pins metadata mode's steady
// state: an olr_malloc that lands on a freed base re-registers the
// ghost record in place, and a layout the interner has already seen
// costs no copy, so malloc, getptr and free allocate nothing. The class
// is pinned to the identity layout, so every allocation draws the same
// layout.
func TestMetadataReregisterAllocatesNothing(t *testing.T) {
	hashA := newViolationHarness(t, nil).hashA
	h := quietHarness(t, func(c *Config) {
		c.PerClass = map[uint64]layout.Config{hashA: {Mode: layout.ModeIdentity}}
	})
	first := uint64(0)
	cycle := func() {
		base := h.alloc(h.hashA)
		if first == 0 {
			first = base
		} else if base != first {
			t.Fatalf("base %#x not recycled (first %#x)", base, first)
		}
		if _, err := h.r.olrGetptr(h.v, base, 1, h.hashA); err != nil {
			t.Fatalf("getptr: %v", err)
		}
		if err := h.r.olrFree(h.v, base); err != nil {
			t.Fatalf("free: %v", err)
		}
		if m, ok := h.r.store.Lookup(base); !ok || !m.Freed {
			t.Fatal("free left no ghost record to re-register")
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("malloc/getptr/free re-registering a ghost allocated %.1f times per cycle, want 0", allocs)
	}
	if st := h.r.Stats().Meta; st.LayoutsUnique != 1 {
		t.Fatalf("identity-pinned class interned %d unique layouts, want 1", st.LayoutsUnique)
	}
}
