package core

// offsetCache is the hashtable-based lookup cache of §V.B: it memoizes
// the result of the member-offset resolution performed by olr_getptr.
// Table III's "cache hit" column counts successful probes of this
// structure.
//
// The cache is direct-mapped and sits in front of the metadata table:
// a hit resolves the member address with one probe and no metadata
// lookup. Entries carry the access-site class hash, so a type-confused
// access (different static class) misses and falls into the slow path
// where the hash check fires; entries for an object are explicitly
// invalidated when it is freed or its base address is re-registered, so
// dangling accesses also fall through to detection.
// The entry array (8192 entries ≈ 320 KB by default) is allocated
// lazily on the first put, so runtimes stamped out per-instance but
// never exercised (or exercised read-only) stay cheap to construct.
type offsetCache struct {
	entries []cacheEntry
	mask    uint64
	size    int // capacity (power of two); 0 = caching disabled
	hits    uint64
	misses  uint64
}

type cacheEntry struct {
	base   uint64
	class  uint64
	field  int32
	offset int32
	valid  bool
}

// newOffsetCache creates a cache with the given size rounded up to a
// power of two. Size 0 disables caching (for the ablation benchmark).
func newOffsetCache(size int) *offsetCache {
	if size <= 0 {
		return &offsetCache{}
	}
	n := 1
	for n < size {
		n <<= 1
	}
	return &offsetCache{size: n, mask: uint64(n - 1)}
}

func (c *offsetCache) slot(base uint64, field int) uint64 {
	h := base*0x9e3779b97f4a7c15 + uint64(field)*0xbf58476d1ce4e5b9
	h ^= h >> 29
	return h & c.mask
}

// get probes the cache; ok reports a hit. A disabled cache (size 0, the
// no-cache ablation) records no probes at all: counting those as misses
// would pollute Table III's hit-rate column with probes that were never
// made. An enabled-but-lazily-unallocated cache still counts the miss —
// the probe genuinely happened and fell through to the slow path.
func (c *offsetCache) get(base uint64, class uint64, field int) (int32, bool) {
	if c.entries == nil {
		if c.size > 0 {
			c.misses++
		}
		return 0, false
	}
	e := &c.entries[c.slot(base, field)]
	if e.valid && e.base == base && e.class == class && e.field == int32(field) {
		c.hits++
		return e.offset, true
	}
	c.misses++
	return 0, false
}

// put installs a resolution result, allocating the entry array on
// first use. It reports whether the write evicted a different live
// entry.
func (c *offsetCache) put(base uint64, class uint64, field int, offset int32) (evicted bool) {
	if c.entries == nil {
		if c.size == 0 {
			return false
		}
		c.entries = make([]cacheEntry, c.size)
	}
	e := &c.entries[c.slot(base, field)]
	evicted = e.valid && (e.base != base || e.class != class || e.field != int32(field))
	*e = cacheEntry{
		base: base, class: class, field: int32(field), offset: offset, valid: true,
	}
	return evicted
}

// invalidate drops any entries for fields [0, nFields) of base — called
// on free and on base re-registration so stale resolutions cannot serve
// dangling or confused accesses.
func (c *offsetCache) invalidate(base uint64, nFields int) {
	if c.entries == nil {
		return
	}
	for f := 0; f < nFields; f++ {
		e := &c.entries[c.slot(base, f)]
		if e.valid && e.base == base && e.field == int32(f) {
			e.valid = false
		}
	}
}
