package core

import (
	"fmt"

	"polar/internal/classinfo"
	"polar/internal/layout"
	"polar/internal/telemetry/exectrace"
	"polar/internal/vm"
)

// LayoutMode selects the layout-resolution strategy a runtime uses.
type LayoutMode int

const (
	// LayoutModeMetadata is the paper's design (§V.B): every allocation
	// registers a per-object layout record in the MetaStore, and
	// olr_getptr resolves through the offset cache and that table. This
	// is the zero value, so existing configurations are unchanged.
	LayoutModeMetadata LayoutMode = iota
	// LayoutModeStateless is the SPAM-style strategy (arXiv 2007.13808):
	// an object's permutation is recomputed at access time from a keyed
	// hash of its base address under the current re-randomization epoch
	// — no metadata probe, no per-object record.
	LayoutModeStateless
)

// String implements fmt.Stringer.
func (m LayoutMode) String() string {
	switch m {
	case LayoutModeMetadata:
		return "metadata"
	case LayoutModeStateless:
		return "stateless"
	default:
		return fmt.Sprintf("layout-mode(%d)", int(m))
	}
}

// ParseLayoutMode maps the CLI spelling to a LayoutMode.
func ParseLayoutMode(s string) (LayoutMode, error) {
	switch s {
	case "", "metadata", "table":
		return LayoutModeMetadata, nil
	case "stateless":
		return LayoutModeStateless, nil
	default:
		return 0, fmt.Errorf("unknown layout mode %q (want metadata or stateless)", s)
	}
}

// LayoutResolver is the pluggable layout-resolution strategy behind the
// olr_* ABI: one seam owns how (base, classHash, field) maps to a
// randomized offset and what per-object state, if any, backs that
// mapping. The Runtime keeps everything strategy-independent — counters,
// object tracking, canary arming, event emission at the operation exits
// — and delegates the strategy-specific ladder here.
// Implementations run on the VM goroutine; none are safe for concurrent
// use.
//
// Violations are recorded by the implementation (it is the only party
// that can classify them); under PolicyAbort the returned error carries
// the *Violation, under PolicyWarn the method continues on the
// documented degraded path. Plain errors (seal failures, out-of-range
// faults) abort the run with no trace record, matching the historical
// behavior of the metadata path.
//
// A layout a method returns may live in storage the strategy reuses
// (the stateless memo slots): it stays valid until the next call into
// the resolver, so a caller that needs it longer copies it.
type LayoutResolver interface {
	// Mode identifies the strategy.
	Mode() LayoutMode

	// Resolve maps a member access to its offset from base and reports
	// which path found it (the exectrace resolution kind). off 0 with a
	// nil error can also mean "land on the object base" for degraded
	// accesses (unknown class under PolicyWarn, confused member index).
	// The resolution is all observers see of the ladder: the getptr
	// event is emitted once, at the olrGetptr exit.
	Resolve(v *vm.VM, base uint64, field int, classHash uint64) (off int, res exectrace.Resolution, err error)

	// Alloc allocates the heap chunk for one instrumented allocation of
	// cls and installs whatever per-object state the strategy needs,
	// returning the base address and the object's effective layout. The
	// caller arms booby traps and emits the alloc events.
	Alloc(v *vm.VM, cls *classinfo.Class) (base uint64, l *layout.Layout, err error)

	// BeginFree validates an instrumented free of base, including the
	// booby-trap sweep. proceed=false means a violation consumed the
	// free (the chunk is NOT released, matching the historical early
	// returns); l == nil with proceed=true frees a chunk the strategy
	// does not manage (no sweep, no per-class free events).
	BeginFree(v *vm.VM, base uint64) (l *layout.Layout, classHash uint64, proceed bool, err error)

	// FinishFree retires per-object state before the chunk is released:
	// cache invalidation plus ghost-marking or record drop for the
	// metadata strategy; for stateless, the object's memo slot and
	// layout-table entries (derivation is pure, so nothing else is
	// retired).
	FinishFree(v *vm.VM, base uint64) error

	// AfterFree runs once the chunk is back in the allocator — the
	// stateless epoch-rekey schedule hooks here so a triggered rekey
	// never remaps the object that just died.
	AfterFree(v *vm.VM) error

	// Memcpy implements the instrumented object copy (§IV.A.2) for the
	// strategy, including the member-wise remap between source and
	// destination layouts.
	Memcpy(v *vm.VM, dst, src uint64, n int, classHash uint64) error

	// Check implements olr_check: sweep the object's booby traps if the
	// strategy manages one at base; 1 = intact or unmanaged, 0 = a trap
	// fired under PolicyWarn, error under PolicyAbort.
	Check(v *vm.VM, base uint64) (int64, error)

	// Rerandomize forces a global re-randomization pass now. Stateless
	// advances the derivation epoch and remaps every live managed
	// object; the metadata strategy reports false — its layouts are
	// already independent per allocation and re-randomize via
	// alloc/free/memcpy churn, not a global key.
	Rerandomize(v *vm.VM) (bool, error)

	// MetadataBytes estimates the per-object metadata the strategy
	// currently holds (the ablation's bytes-per-live-object numerator).
	// Fixed-size structures that do not grow with the object population
	// (the stateless derivation memo, the offset cache) do not count.
	MetadataBytes() uint64
}

// metaRecordBytes approximates the footprint of one MetaStore record:
// unsafe.Sizeof(ObjectMeta) rounds to 48 bytes and the sharded map adds
// roughly a bucket slot (key + pointer) per entry.
const metaRecordBytes = 64

// metaResolver is the paper's table-backed strategy: MetaStore records
// plus the direct-mapped offset cache, with ghost records for UAF
// detection and keyed seals for metadata integrity. It is the only
// strategy that supports Config.DetectUAF and Config.MetadataIntegrity.
type metaResolver struct {
	rt *Runtime
}

func (m *metaResolver) Mode() LayoutMode { return LayoutModeMetadata }

// Resolve implements the cache → metadata → static fallback ladder
// (Fig. 4's olr_getptr(A, 2)). The cache is keyed by (base, class,
// field) and invalidated on free/re-registration, so a hit can only
// occur for a live, correctly-typed object — the slow path performs the
// UAF and type-confusion checks.
func (m *metaResolver) Resolve(v *vm.VM, base uint64, field int, classHash uint64) (int, exectrace.Resolution, error) {
	r := m.rt
	if off, hit := r.cache.Get(base, classHash, field); hit {
		return int(off), exectrace.ResCacheHit, nil
	}
	r.metaProbes++
	meta, ok := r.store.Lookup(base)
	if ok {
		if err := r.verifySeal(meta); err != nil {
			return 0, 0, err
		}
	}
	if ok && r.cfg.DetectUAF && meta.Freed {
		if err := r.violate(ViolationUAF, base, meta.ClassHash, meta); err != nil {
			return 0, 0, err
		}
		// Warn policy: fall through and resolve against the ghost layout,
		// which is what a real dangling access would touch.
	}
	if !ok {
		// Untracked object (stack/global instance of a randomized class,
		// or memory the pass could not see allocated): fall back to the
		// compiler's static layout.
		cls, found := r.table.ByHash(classHash)
		if !found {
			if err := r.violate(ViolationBadClass, base, classHash, nil); err != nil {
				return 0, 0, err
			}
			return 0, exectrace.ResStatic, nil
		}
		if field < 0 || field >= len(cls.Members) {
			return 0, 0, fmt.Errorf("polar: field %d out of range for %s", field, cls.Name())
		}
		return cls.Members[field].StaticOffset, exectrace.ResStatic, nil
	}
	if meta.ClassHash != classHash {
		// The access site was compiled against a different class than
		// the one recorded at allocation time — a type-confused access.
		// The metadata of Fig. 4 carries the allocation's class hash, so
		// this check is one compare on the lookup path.
		if err := r.violate(ViolationTypeConfusion, base, meta.ClassHash, meta); err != nil {
			return 0, 0, err
		}
		// Warn policy: fall through and resolve against the actual
		// object's randomized layout — the confused read lands on
		// whatever the allocation's layout put at that member index,
		// which is the nondeterminism §III.B.2 describes.
	}
	if field < 0 || field >= len(meta.Layout.Offsets) {
		// Confused index beyond the actual object's member count: land
		// on the object base (defined, harmless) rather than faulting.
		return 0, exectrace.ResStatic, nil
	}
	off, err := meta.Layout.FieldOffset(field)
	if err != nil {
		return 0, 0, fmt.Errorf("polar: %s: %w", r.className(meta.ClassHash), err)
	}
	// Only well-typed live accesses populate the cache; confused or
	// dangling resolutions must keep hitting the slow path.
	if meta.ClassHash == classHash && !meta.Freed {
		r.cache.Put(base, classHash, field, int32(off))
	}
	return off, exectrace.ResMetadata, nil
}

// Alloc generates a fresh per-allocation layout into the runtime's
// scratch layout, interns it (the interner copies only a layout it has
// not seen), allocates exactly its footprint, and registers (and seals)
// the metadata record.
func (m *metaResolver) Alloc(v *vm.VM, cls *classinfo.Class) (uint64, *layout.Layout, error) {
	r := m.rt
	in := r.inputsOf(cls)
	l, err := r.generateLayout(cls, in, in.cfg)
	if err != nil {
		return 0, nil, fmt.Errorf("polar: layout for %s: %w", cls.Name(), err)
	}
	l = r.store.Intern(cls.Hash, l)
	base, err := v.Heap.Alloc(l.TotalSize)
	if err != nil {
		return 0, nil, err
	}
	meta, old := r.store.Register(base, cls.Hash, l, l.TotalSize)
	r.seal(meta)
	if old != nil {
		r.cache.Invalidate(base, len(old.Offsets))
	}
	return base, l, nil
}

func (m *metaResolver) BeginFree(v *vm.VM, base uint64) (*layout.Layout, uint64, bool, error) {
	r := m.rt
	meta, ok := r.store.Lookup(base)
	if !ok {
		return nil, 0, false, r.violate(ViolationBadFree, base, 0, nil)
	}
	if err := r.verifySeal(meta); err != nil {
		return nil, 0, false, err
	}
	if meta.Freed {
		return nil, 0, false, r.violate(ViolationDoubleFree, base, meta.ClassHash, meta)
	}
	if bad, err := r.checkTraps(v, base, meta.Layout); err != nil {
		return nil, 0, false, err
	} else if bad >= 0 {
		if verr := r.violate(ViolationTrap, base+uint64(bad), meta.ClassHash, meta); verr != nil {
			return nil, 0, false, verr
		}
	}
	return meta.Layout, meta.ClassHash, true, nil
}

// FinishFree retires the record: the ghost (sealed with Freed set)
// stays behind for UAF detection, or the record is dropped outright.
func (m *metaResolver) FinishFree(v *vm.VM, base uint64) error {
	r := m.rt
	meta, ok := r.store.Lookup(base)
	if !ok {
		return nil
	}
	r.cache.Invalidate(base, len(meta.Layout.Offsets))
	if r.cfg.DetectUAF {
		r.store.MarkFreed(base)
		r.seal(meta) // Freed participates in the MAC
	} else {
		r.store.Drop(base)
	}
	return nil
}

func (m *metaResolver) AfterFree(v *vm.VM) error { return nil }

// Memcpy implements the instrumented object copy (§IV.A.2): when the
// source is a tracked object, the copy is performed member-wise so the
// destination can carry its own (fresh or cloned) randomized layout.
func (m *metaResolver) Memcpy(v *vm.VM, dst, src uint64, n int, classHash uint64) error {
	r := m.rt
	srcMeta, srcTracked := r.store.Lookup(src)
	if srcTracked {
		if err := r.verifySeal(srcMeta); err != nil {
			return err
		}
	}
	if srcTracked && r.cfg.DetectUAF && srcMeta.Freed {
		if err := r.violate(ViolationUAF, src, srcMeta.ClassHash, srcMeta); err != nil {
			return err
		}
	}
	if !srcTracked {
		// Raw copy; if the destination is a tracked object we must write
		// member-wise into its randomized layout from a static-layout
		// source image.
		if dstMeta, ok := r.store.Lookup(dst); ok && !dstMeta.Freed {
			cls, ok := r.table.ByHash(dstMeta.ClassHash)
			if !ok {
				return v.Mem.Copy(dst, src, dstMeta.Size)
			}
			return r.copyStaticToRandom(v, dst, dstMeta.Layout, cls, src)
		}
		return v.Mem.Copy(dst, src, n)
	}
	// The source's class and layout are read out once: re-registering
	// dst below overwrites its record in place, and dst can be src's own
	// (ghost) base.
	srcClass, srcL := srcMeta.ClassHash, srcMeta.Layout
	cls, ok := r.table.ByHash(srcClass)
	if !ok {
		return v.Mem.Copy(dst, src, n)
	}
	if bad, err := r.checkTraps(v, src, srcL); err != nil {
		return err
	} else if bad >= 0 {
		if verr := r.violate(ViolationTrap, src+uint64(bad), srcClass, srcMeta); verr != nil {
			return verr
		}
	}
	dstMeta, dstTracked := r.store.Lookup(dst)
	if dstTracked && !dstMeta.Freed {
		if dstMeta.ClassHash != srcClass {
			// Copying one class's image over a live object of another
			// class is a type-confused write (§III.A.1 in memcpy form).
			if err := r.violate(ViolationTypeConfusion, dst, dstMeta.ClassHash, dstMeta); err != nil {
				return err
			}
			// Warn policy: perform the raw copy the unprotected program
			// would have done — clobbering dst's randomized image — and
			// leave the booby traps to catch the damage later.
			return v.Mem.Copy(dst, src, n)
		}
		// Destination already has its own randomized layout: remap.
		return r.copyMemberwise(v, dst, dstMeta.Layout, src, srcL, cls)
	}
	// Destination is an untracked region (fresh raw chunk, stack or
	// global). Give it a layout of its own when it is a heap chunk large
	// enough; otherwise fall back to the static layout so subsequent
	// accesses still resolve via the static path.
	if size, live, isChunk := v.Heap.SizeOf(dst); isChunk && live {
		l, err := r.layoutFitting(cls, srcL, size)
		if err != nil {
			return err
		}
		if l != nil {
			l = r.store.Intern(srcClass, l)
			dm, old := r.store.Register(dst, srcClass, l, l.TotalSize)
			r.seal(dm)
			// dst is a live chunk with no live record, so the adopted copy
			// is one more live object whether or not a ghost sat there.
			r.noteLiveObject()
			if old != nil {
				r.cache.Invalidate(dst, len(old.Offsets))
			}
			v.TrackObject(dst, cls.Struct)
			if err := r.armTraps(v, dst, l); err != nil {
				return err
			}
			r.noteRerand(dst, n, cls, l)
			return r.copyMemberwise(v, dst, l, src, srcL, cls)
		}
	}
	return r.copyRandomToStatic(v, dst, src, srcL, cls)
}

// Check forces a booby-trap sweep of one tracked object (ghosts
// included — a freed object's chunk may still hold its canaries).
func (m *metaResolver) Check(v *vm.VM, base uint64) (int64, error) {
	r := m.rt
	meta, ok := r.store.Lookup(base)
	if !ok {
		return 1, nil
	}
	bad, err := r.checkTraps(v, base, meta.Layout)
	if err != nil {
		return 0, err
	}
	if bad < 0 {
		return 1, nil
	}
	if verr := r.violate(ViolationTrap, base+uint64(bad), meta.ClassHash, meta); verr != nil {
		return 0, verr
	}
	return 0, nil
}

func (m *metaResolver) Rerandomize(v *vm.VM) (bool, error) { return false, nil }

func (m *metaResolver) MetadataBytes() uint64 {
	_, total := m.rt.store.Counts()
	return uint64(total) * metaRecordBytes
}
