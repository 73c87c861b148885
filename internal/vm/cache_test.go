package vm

import (
	"testing"
	"testing/quick"
)

// newTestCache makes a cache whose generation never advances, as the
// metadata runtime's does.
func newTestCache(size int) *LayoutCache {
	gen := uint64(1)
	return NewLayoutCache(size, &gen)
}

func TestOffsetCacheBasics(t *testing.T) {
	c := newTestCache(64)
	if _, hit := c.Get(0x1000, 5, 0); hit {
		t.Fatal("empty cache hit")
	}
	c.Put(0x1000, 5, 0, 24)
	off, hit := c.Get(0x1000, 5, 0)
	if !hit || off != 24 {
		t.Fatalf("get = %d %v", off, hit)
	}
	// Different class hash (type-confused access) must miss.
	if _, hit := c.Get(0x1000, 6, 0); hit {
		t.Fatal("confused class hit the cache")
	}
	// Different field must miss.
	if _, hit := c.Get(0x1000, 5, 1); hit {
		t.Fatal("wrong field hit the cache")
	}
	c.Invalidate(0x1000, 4)
	if _, hit := c.Get(0x1000, 5, 0); hit {
		t.Fatal("invalidated entry still hit")
	}
	if c.hits != 1 || c.misses != 4 {
		t.Fatalf("counters = %d/%d", c.hits, c.misses)
	}
}

func TestOffsetCacheDisabled(t *testing.T) {
	c := newTestCache(0)
	c.Put(1, 2, 3, 4)
	if _, hit := c.Get(1, 2, 3); hit {
		t.Fatal("disabled cache hit")
	}
	c.Invalidate(1, 8) // must not panic
	// A disabled cache makes no probes, so it must record none: the
	// no-cache ablation's Table III hit-rate column stays empty instead
	// of reporting a 0% rate over probes that never happened.
	if c.hits != 0 || c.misses != 0 {
		t.Fatalf("disabled cache counted probes: hits=%d misses=%d", c.hits, c.misses)
	}
}

// TestOffsetCacheLazyMissCounting: an enabled cache whose entry array has
// not been allocated yet (no put so far) still counts probes — those
// probes really happened and fell through to the metadata slow path.
func TestOffsetCacheLazyMissCounting(t *testing.T) {
	c := newTestCache(64)
	if _, hit := c.Get(0x1000, 5, 0); hit {
		t.Fatal("unallocated cache hit")
	}
	if c.misses != 1 {
		t.Fatalf("pre-allocation probe not counted: misses=%d", c.misses)
	}
}

// TestOffsetCacheQuick: whatever was last put for (base, class, field)
// is what get returns, across random collisions.
func TestOffsetCacheQuick(t *testing.T) {
	c := newTestCache(16) // tiny: force collisions
	shadow := make(map[[3]uint64]int32)
	prop := func(baseSel, fieldSel uint8, off int32) bool {
		base := uint64(baseSel%8)*16 + 0x1000
		field := int(fieldSel % 4)
		key := [3]uint64{base, 7, uint64(field)}
		c.Put(base, 7, field, off)
		shadow[key] = off
		got, hit := c.Get(base, 7, field)
		// A hit must return the shadow value; a miss is allowed (another
		// key may have evicted the slot).
		if hit && got != shadow[key] {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestLayoutCacheGeneration: advancing the generation drops every entry
// at once, and a put under the new generation hits again.
func TestLayoutCacheGeneration(t *testing.T) {
	gen := uint64(1)
	c := NewLayoutCache(64, &gen)
	c.Put(0x1000, 5, 0, 24)
	c.Put(0x2000, 5, 1, 8)
	gen++
	for _, k := range [][2]uint64{{0x1000, 0}, {0x2000, 1}} {
		if _, hit := c.Get(k[0], 5, int(k[1])); hit {
			t.Fatalf("entry %#x/%d survived a generation advance", k[0], k[1])
		}
	}
	c.Put(0x1000, 5, 0, 32)
	if off, hit := c.Get(0x1000, 5, 0); !hit || off != 32 {
		t.Fatalf("get after re-put = %d %v", off, hit)
	}
}

// TestLayoutCacheFieldOutsideInt32: the entry keeps its field as an
// int32, so a field index outside int32 must neither hit an entry nor
// install one. 1 + 2^42 hashes to field 1's slot at every table size
// up to 2^13 entries, and compared as an int32 it is field 1.
func TestLayoutCacheFieldOutsideInt32(t *testing.T) {
	const alias = 1 + 1<<42
	for _, size := range []int{SmallCacheSize, 8192} {
		c := newTestCache(size)
		if c.slot(0x4000_0000, alias) != c.slot(0x4000_0000, 1) {
			t.Fatalf("size %d: field %d does not share field 1's slot", size, alias)
		}
		c.Put(0x4000_0000, 5, 1, 8)
		if off, hit := c.Get(0x4000_0000, 5, alias); hit {
			t.Fatalf("size %d: field %d hit field 1's entry (offset %d)", size, alias, off)
		}
		c.Put(0x4000_0000, 5, alias, 16)
		if off, hit := c.Get(0x4000_0000, 5, 1); !hit || off != 8 {
			t.Fatalf("size %d: field 1 = %d %v after a put of field %d, want its own offset 8", size, off, hit, alias)
		}
	}
}
