package core

import (
	"sync"
	"sync/atomic"

	"polar/internal/layout"
	"polar/internal/telemetry"
)

// ObjectMeta is the per-object record of Fig. 4: base address → class
// hash + layout pointer. Freed metadata lingers (as a "ghost") until the
// chunk is re-registered, which is what lets olr_getptr flag obvious
// use-after-free attempts.
type ObjectMeta struct {
	Base      uint64
	ClassHash uint64
	Layout    *layout.Layout
	Size      int
	Freed     bool

	// mac is the integrity seal (0 unless Config.MetadataIntegrity).
	mac uint64
}

// MetaStats counts metadata-table events.
type MetaStats struct {
	Registered uint64
	Retired    uint64
	// LayoutsUnique and LayoutsShared split this store's own Intern
	// calls into layouts the interner had not seen (a new record) and
	// layouts it already held (served by the dedup table). Stores
	// sharing one interner count separately, so their sums are the
	// interner's totals however the calls interleave.
	LayoutsUnique uint64
	LayoutsShared uint64
	// Shards breaks the object table down per shard so load imbalance
	// across the 16 shards is visible (the aggregate counters above
	// cannot show one hot shard serializing everything).
	Shards []MetaShardStats
}

// MetaShardStats is one shard's slice of the object table.
type MetaShardStats struct {
	Registered uint64
	Retired    uint64
	Live       uint64 // non-freed records currently held
	Total      uint64 // records currently held (live + ghosts)
}

// numMetaShards is the shard count of the object table (power of two so
// shard selection is a mask). 16 shards keep the per-shard maps small
// and let register/free/lookup from many instances proceed without
// funneling through one lock.
const numMetaShards = 16

// metaShard is one slice of the object table: its own lock, its own
// map, its own event counters (summed on Stats so the hot path never
// touches shared counters).
type metaShard struct {
	mu         sync.RWMutex
	objects    map[uint64]*ObjectMeta
	registered uint64
	retired    uint64
}

// LayoutInterner is the layout deduplication table (§V.B: "remove the
// duplicate metadata when two objects have the same randomized memory
// layout"). It is independent of any object table so multiple runtimes
// — e.g. many VM instances of one Program — can share one interner and
// pool their dedup hits, while keeping private object tables (instance
// address spaces collide, layouts don't).
//
// Safe for concurrent use.
type LayoutInterner struct {
	mu sync.Mutex
	// dedup buckets layouts by (class hash ^ layout hash); collisions
	// within a bucket are resolved with Layout.Equal.
	dedup map[uint64][]*layout.Layout

	// chainHist, when non-nil, observes the dedup-bucket chain length
	// walked by each Intern. It is attached (once) via AttachChainHist
	// by the first telemetry-carrying runtime built over this interner;
	// atomic because concurrent instances sharing the interner attach
	// and observe without holding mu.
	chainHist atomic.Pointer[telemetry.Histogram]
}

// NewLayoutInterner returns an empty dedup table.
func NewLayoutInterner() *LayoutInterner {
	return &LayoutInterner{dedup: make(map[uint64][]*layout.Layout)}
}

// AttachChainHist wires the histogram that Intern observes dedup-chain
// lengths into. The first attachment wins and later calls are no-ops,
// so a shared interner reports into one registry for its whole lifetime
// instead of being re-pointed at whichever concurrent run's registry
// was wired last. Safe for concurrent use.
func (in *LayoutInterner) AttachChainHist(h *telemetry.Histogram) {
	in.chainHist.CompareAndSwap(nil, h)
}

// Intern returns the canonical layout equal to l for the class,
// registering a copy of l if it is new (fresh reports which). The
// returned layout must be used in place of l so identical layouts share
// one metadata record. Intern never keeps l itself, so callers may
// generate into one reused buffer (even under a shared interner), and a
// layout already seen costs no allocation.
func (in *LayoutInterner) Intern(classHash uint64, l *layout.Layout) (canon *layout.Layout, fresh bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	key := classHash ^ l.Hash()
	chain := in.dedup[key]
	if h := in.chainHist.Load(); h != nil {
		h.Observe(float64(len(chain)))
	}
	for _, prev := range chain {
		if prev.Equal(l) {
			return prev, false
		}
	}
	c := l.Clone()
	in.dedup[key] = append(chain, c)
	return c, true
}

// MetaStore is the POLaR object-tracking table plus the layout
// deduplication table. The object table is sharded by base-address hash
// (RWMutex per shard) so concurrent instances don't serialize on one
// lock; the dedup table lives in a LayoutInterner that may be shared
// across stores.
//
// The zero value is not usable; call NewMetaStore. Safe for concurrent
// use.
type MetaStore struct {
	shards   [numMetaShards]metaShard
	interner *LayoutInterner
	// unique/shared count this store's Intern calls (see MetaStats).
	unique, shared atomic.Uint64
}

// NewMetaStore returns an empty store with a private interner.
func NewMetaStore() *MetaStore { return NewSharedMetaStore(nil) }

// NewSharedMetaStore returns an empty store deduplicating layouts
// through in (a private interner is created when in is nil). Sharing
// one interner across stores pools their dedup tables; the object
// shards stay private.
func NewSharedMetaStore(in *LayoutInterner) *MetaStore {
	if in == nil {
		in = NewLayoutInterner()
	}
	s := &MetaStore{interner: in}
	for i := range s.shards {
		s.shards[i].objects = make(map[uint64]*ObjectMeta)
	}
	return s
}

// Interner exposes the layout-dedup table (for sharing across stores).
func (s *MetaStore) Interner() *LayoutInterner { return s.interner }

// shard picks the shard owning base. The multiply spreads the (heavily
// aligned) base addresses; the xor folds the high-entropy bits down
// into the mask.
func (s *MetaStore) shard(base uint64) *metaShard {
	h := base * 0x9e3779b97f4a7c15
	h ^= h >> 32
	return &s.shards[h&(numMetaShards-1)]
}

// Intern forwards to the store's layout interner, counting the call as
// unique or shared for this store.
func (s *MetaStore) Intern(classHash uint64, l *layout.Layout) *layout.Layout {
	c, fresh := s.interner.Intern(classHash, l)
	if fresh {
		s.unique.Add(1)
	} else {
		s.shared.Add(1)
	}
	return c
}

// Register installs metadata for a freshly allocated object. A record
// already at the same base (the ghost of a freed object whose chunk the
// allocator recycled) is overwritten in place, so re-registering a base
// allocates nothing. It returns the object's record plus the replaced
// record's layout (nil if the base had no record), so callers can
// invalidate caches covering the old object's fields. A record pointer
// from an earlier Lookup of base describes the new object afterwards.
func (s *MetaStore) Register(base uint64, classHash uint64, l *layout.Layout, size int) (*ObjectMeta, *layout.Layout) {
	sh := s.shard(base)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.registered++
	var old *layout.Layout
	m, ok := sh.objects[base]
	if ok {
		old = m.Layout
	} else {
		m = new(ObjectMeta)
		sh.objects[base] = m
	}
	*m = ObjectMeta{Base: base, ClassHash: classHash, Layout: l, Size: size}
	return m, old
}

// Lookup returns the metadata at base (live or ghost).
func (s *MetaStore) Lookup(base uint64) (*ObjectMeta, bool) {
	sh := s.shard(base)
	sh.mu.RLock()
	m, ok := sh.objects[base]
	sh.mu.RUnlock()
	return m, ok
}

// MarkFreed flags the object as freed but keeps the ghost record.
func (s *MetaStore) MarkFreed(base uint64) {
	sh := s.shard(base)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if m, ok := sh.objects[base]; ok && !m.Freed {
		m.Freed = true
		sh.retired++
	}
}

// Drop removes metadata entirely (used when ghosts should not linger,
// e.g. when the VM recycles a chunk for an untracked allocation).
func (s *MetaStore) Drop(base uint64) {
	sh := s.shard(base)
	sh.mu.Lock()
	delete(sh.objects, base)
	sh.mu.Unlock()
}

// LiveCount returns the number of non-freed records (O(n); tests only).
func (s *MetaStore) LiveCount() int {
	live, _ := s.Counts()
	return live
}

// Stats returns a snapshot of the counters, merged across shards, plus
// the per-shard breakdown.
func (s *MetaStore) Stats() MetaStats {
	st := MetaStats{Shards: make([]MetaShardStats, numMetaShards)}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		ss := MetaShardStats{
			Registered: sh.registered,
			Retired:    sh.retired,
			Total:      uint64(len(sh.objects)),
		}
		for _, m := range sh.objects {
			if !m.Freed {
				ss.Live++
			}
		}
		sh.mu.RUnlock()
		st.Shards[i] = ss
		st.Registered += ss.Registered
		st.Retired += ss.Retired
	}
	st.LayoutsUnique = s.unique.Load()
	st.LayoutsShared = s.shared.Load()
	return st
}

// Counts returns the live (non-freed) and total record counts — the
// inputs to the metadata-table load-factor gauge (O(n); called at
// snapshot points, not on hot paths).
func (s *MetaStore) Counts() (live, total int) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for _, m := range sh.objects {
			if !m.Freed {
				live++
			}
		}
		total += len(sh.objects)
		sh.mu.RUnlock()
	}
	return live, total
}
