package vm

// LayoutCache is the one layout cache (DESIGN.md §13): a direct-mapped
// table that memoizes olr_getptr's (base, class, field) → offset
// resolution. The layout runtime owns it and writes it; the dispatch
// loops read it at every olr_getptr site before calling the builtin,
// and replay a hit through the runtime's hit callback
// (UseLayoutCache). In metadata mode it is the §V.B offset cache, and
// Table III's "cache hit" column counts its hits.
//
// Entries carry the access-site class hash, so a type-confused access
// (different static class) misses and falls into the slow path where
// the hash check fires. The owner invalidates an object's entries when
// it frees the object or re-registers its base, so dangling accesses
// also fall through to detection; a write to a taken slot replaces the
// entry. Every entry also records the generation it was written under,
// and only entries of the current generation hit: advancing the
// counter drops the whole table at once, for whole-program events
// such as a stateless epoch advance.
//
// The entry array (8192 entries = 256 KiB at the runtime's default
// size) is allocated lazily on the first put, so runtimes stamped out
// per instance but never exercised stay cheap to construct.
type LayoutCache struct {
	entries []cacheEntry
	mask    uint64
	size    int     // capacity (power of two); 0 = caching disabled
	gen     *uint64 // the owner's generation counter; above 0, so zeroed entries never hit
	hits    uint64
	misses  uint64
}

type cacheEntry struct {
	base   uint64
	class  uint64
	field  int32
	offset int32
	gen    uint64
}

// SmallCacheSize is the entry count of the table a VM makes for
// InstallLayoutCache, and of the stateless runtime's table: 256
// entries (8 KiB) hold the hot working set of the workloads without
// adding measurably to a run's allocation.
const SmallCacheSize = 256

// NewLayoutCache creates a cache with the given size rounded up to a
// power of two, whose entries validate against *gen; the counter must
// start above 0. Size 0 disables caching (for the ablation benchmark).
func NewLayoutCache(size int, gen *uint64) *LayoutCache {
	if size <= 0 {
		return &LayoutCache{gen: gen}
	}
	n := 1
	for n < size {
		n <<= 1
	}
	return &LayoutCache{size: n, mask: uint64(n - 1), gen: gen}
}

func (c *LayoutCache) slot(base uint64, field int) uint64 {
	h := base*0x9e3779b97f4a7c15 + uint64(field)*0xbf58476d1ce4e5b9
	h ^= h >> 29
	return h & c.mask
}

// Get probes the cache; ok reports a hit. A disabled cache (size 0, the
// no-cache ablation) records no probes at all: counting those as misses
// would pollute Table III's hit-rate column with probes that were never
// made. An enabled-but-lazily-unallocated cache still counts the miss —
// the probe genuinely happened and fell through to the slow path.
func (c *LayoutCache) Get(base, class uint64, field int) (int32, bool) {
	off, ok := c.lookup(base, class, field)
	if !ok && c.size > 0 {
		c.misses++
	}
	return off, ok
}

// lookup is the dispatch loops' probe. It counts a hit but not a miss:
// a miss goes on to the builtin, whose resolver probes again with Get
// and counts it there, so each access is counted once. The entry's
// field is widened for the compare, so a field outside int32, which no
// entry holds (Put), misses: narrowed, it would alias the field 2^32
// apart.
func (c *LayoutCache) lookup(base, class uint64, field int) (int32, bool) {
	if c.entries == nil {
		return 0, false
	}
	e := &c.entries[c.slot(base, field)]
	if e.gen == *c.gen && e.base == base && e.class == class && int(e.field) == field {
		c.hits++
		return e.offset, true
	}
	return 0, false
}

// Put installs a resolution result under the current generation,
// allocating the entry array on first use and replacing whatever the
// slot held. A field outside int32 is not stored: the entry keeps the
// field as an int32.
func (c *LayoutCache) Put(base, class uint64, field int, offset int32) {
	if int(int32(field)) != field {
		return
	}
	if c.entries == nil {
		if c.size == 0 {
			return
		}
		c.entries = make([]cacheEntry, c.size)
	}
	c.entries[c.slot(base, field)] = cacheEntry{
		base: base, class: class, field: int32(field), offset: offset, gen: *c.gen,
	}
}

// Invalidate drops any entries for fields [0, nFields) of base — called
// on free and on base re-registration so stale resolutions cannot serve
// dangling or confused accesses.
func (c *LayoutCache) Invalidate(base uint64, nFields int) {
	if c.entries == nil {
		return
	}
	for f := 0; f < nFields; f++ {
		e := &c.entries[c.slot(base, f)]
		if e.base == base && e.field == int32(f) {
			e.gen = 0
		}
	}
}

// Hits returns how many probes hit, whether the dispatch loops or the
// owner's Get made them.
func (c *LayoutCache) Hits() uint64 { return c.hits }

// Misses returns how many Get probes of an enabled cache missed.
func (c *LayoutCache) Misses() uint64 { return c.misses }
