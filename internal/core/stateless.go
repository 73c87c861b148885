package core

import (
	"fmt"
	"slices"

	"polar/internal/classinfo"
	"polar/internal/ir"
	"polar/internal/layout"
	"polar/internal/telemetry"
	"polar/internal/telemetry/exectrace"
	"polar/internal/vm"
)

// epochMix spreads the re-randomization epoch across the SipHash key's
// second half so consecutive epochs select unrelated permutations.
const epochMix = 0x9e3779b97f4a7c15

// derivedEntry is one slot of the direct-mapped derivation memo.
// Derivation is a pure function of (key, epoch, class, base), so an
// evicted or missing entry is simply recomputed. A populated entry is
// additionally a liveness witness: it is only written while base is
// tracked as that class and is cleared on free (FinishFree), so a hit
// lets the resolve hot path skip the VM type-map lookup entirely — the
// stateless analogue of the metadata strategy's offset-cache hit.
//
// base 0 marks an empty slot: heap bases start at vm.HeapBase, so no
// object lives there, and a flag would grow every slot past 32 bytes.
// l is the slot's own layout storage, allocated on the slot's first
// derivation and reused by every later object that maps to the slot.
type derivedEntry struct {
	base  uint64
	class uint64
	epoch uint64
	l     *layout.Layout
}

// statelessResolver derives each object's permutation from a SipHash of
// its base address under (seed, epoch) at access time — SPAM's design
// point (arXiv 2007.13808): no MetaStore record, no offset-cache probe,
// zero metadata bytes per live object. Objects are identified through
// the VM's type-tracking map (which every dispatch loop maintains identically),
// and chunks are sized by layout.MaxSize so every epoch's layout fits
// the same slab, which is what makes epoch-rekey remapping safe.
//
// Detection matrix (see DESIGN.md §12): bad-class, type confusion,
// booby traps, bad free and double free (via allocator liveness) still
// fire; UAF detection needs the ghost records only the metadata
// strategy keeps, and metadata-integrity seals have no metadata to
// seal — Config.DetectUAF and Config.MetadataIntegrity are therefore
// inert in this mode (documented, not silently skipped: New rejects no
// configuration, but a dangling access degrades to the static-fallback
// arm instead of a ViolationUAF).
type statelessResolver struct {
	rt *Runtime

	// k0/k1 are the SipHash key halves, drawn from the seeded run RNG;
	// the current epoch is folded into k1 at derivation time.
	k0, k1 uint64
	epoch  uint64

	// rekeyEvery triggers a global epoch advance (and live-object remap)
	// after that many instrumented frees; 0 disables rekeying.
	rekeyEvery uint64
	freeCount  uint64
	rekeys     uint64

	// Direct-mapped derivation memo (one entry covers every field of an
	// object, unlike the per-(base, field) offset cache). Sized like the
	// offset cache from Config.CacheSize; nil when the cache is disabled.
	memo     []derivedEntry
	memoMask uint64

	// keyed is the one PRF and rand.Rand every derivation re-keys;
	// outgoing receives the outgoing epoch's layout during a rekey.
	keyed    layout.Keyed
	outgoing layout.Layout
	// derived receives every derivation while the memo is off; srcCopy
	// holds a memcpy source's layout while the destination's derivation
	// reuses the storage it was derived into.
	derived layout.Layout
	srcCopy layout.Layout
	// bases and stage are the rekey remap's buffers: the live bases in
	// ascending order, and one object's member images under the
	// outgoing layout.
	bases []uint64
	stage []byte
}

func newStatelessResolver(r *Runtime) *statelessResolver {
	s := &statelessResolver{
		rt: r,
		k0: r.rng.Uint64(),
		k1: r.rng.Uint64(),
	}
	if r.cfg.RekeyEvery > 0 {
		s.rekeyEvery = uint64(r.cfg.RekeyEvery)
	}
	if n := r.cfg.CacheSize; n > 0 {
		p := 1
		for p < n {
			p <<= 1
		}
		s.memo = make([]derivedEntry, p)
		s.memoMask = uint64(p - 1)
	}
	return s
}

func (s *statelessResolver) Mode() LayoutMode { return LayoutModeStateless }

// maxSize returns the class's slab bound: the chunk every stateless
// allocation of cls gets, large enough for the layout any (key, epoch,
// base) derives.
func (s *statelessResolver) maxSize(cls *classinfo.Class) int {
	return s.rt.inputsOf(cls).maxSize
}

// derive recomputes the layout of (cls, base) under the given epoch
// into dst, with no telemetry side effects — the rekey path uses it to
// recover the outgoing epoch's layout.
func (s *statelessResolver) derive(dst *layout.Layout, cls *classinfo.Class, in *classInputs, base, epoch uint64) error {
	return s.keyed.GenerateInto(dst, in.fields, in.cfg, s.k0, s.k1^(epoch*epochMix), base^cls.Hash)
}

// layoutFor returns the current-epoch layout of (cls, base), memoized.
// A memo miss re-derives into the storage of base's memo slot, or into
// the resolver's own layout when the memo is off, and re-emits the
// layout-generation telemetry — deterministically, since eviction
// order is a pure function of the access sequence.
//
// The returned layout stays valid until the next derivation into the
// same storage: the next miss on the same memo slot, or with the memo
// off the next miss of any object. A caller holding two layouts at once
// copies the first out before deriving the second (Memcpy).
func (s *statelessResolver) layoutFor(cls *classinfo.Class, base uint64) (*layout.Layout, error) {
	r := s.rt
	dst := &s.derived
	var e *derivedEntry
	if s.memo != nil {
		e = &s.memo[s.memoIdx(base)]
		if e.base == base && e.class == cls.Hash && e.epoch == s.epoch {
			return e.l, nil
		}
		if e.base != 0 && e.epoch == s.epoch {
			// Evicting another object's entry: the layout table must not
			// serve a hit the memo no longer holds. Done before the
			// derivation overwrites the field count in the slot's storage.
			r.cache.Invalidate(e.base, len(e.l.Offsets))
		}
		if e.l == nil {
			e.l = new(layout.Layout)
		}
		dst = e.l
	}
	in := r.inputsOf(cls)
	if err := s.derive(dst, cls, in, base, s.epoch); err != nil {
		return nil, err
	}
	r.noteLayoutGen(cls, in.cfg, in.nFptrs, dst)
	if e != nil {
		e.base, e.class, e.epoch = base, cls.Hash, s.epoch
	}
	return dst, nil
}

// memoIdx maps a base address to its direct-mapped memo slot.
func (s *statelessResolver) memoIdx(base uint64) uint64 {
	h := base * 0x9e3779b97f4a7c15
	h ^= h >> 29
	return h & s.memoMask
}

// memoHit returns the memoized current-epoch layout when the slot
// witnesses (base, class) as live, nil otherwise. A null base never
// hits: base 0 marks an empty slot.
func (s *statelessResolver) memoHit(base, class uint64) *layout.Layout {
	if s.memo == nil || base == 0 {
		return nil
	}
	e := &s.memo[s.memoIdx(base)]
	if e.base == base && e.class == class && e.epoch == s.epoch {
		return e.l
	}
	return nil
}

// managed reports whether base is a live object this strategy lays out:
// a VM-tracked struct whose class is in the hardening table. Raw
// allocations of untable'd classes and non-heap memory fall out here
// and take the static arm, mirroring the metadata strategy's
// unregistered-object behavior.
func (s *statelessResolver) managed(v *vm.VM, base uint64) (*classinfo.Class, *layout.Layout, error) {
	st, ok := v.ObjectType(base)
	if !ok || st == nil {
		return nil, nil, nil
	}
	cls, ok := s.rt.table.ByName(st.Name)
	if !ok || cls.Struct != st {
		return nil, nil, nil
	}
	l, err := s.layoutFor(cls, base)
	if err != nil {
		return nil, nil, err
	}
	return cls, l, nil
}

// Resolve recomputes the member offset from the keyed hash — probe
// length 0: no metadata structure is consulted on any arm of this
// ladder (the static fallback observes 3, keeping the static-arm bucket
// meaning consistent across strategies).
func (s *statelessResolver) Resolve(v *vm.VM, base uint64, field int, classHash uint64) (int, exectrace.Resolution, error) {
	r := s.rt
	cls, found := r.table.ByHash(classHash)
	if !found {
		if r.tel != nil {
			r.histProbe.Observe(3)
			r.tel.Emit(telemetry.Event{Kind: telemetry.EvFieldMiss, Addr: base, Class: classHash, Field: field})
		}
		if err := r.violate(ViolationBadClass, base, classHash, nil); err != nil {
			return 0, 0, err
		}
		return 0, exectrace.ResStatic, nil
	}
	// Hot path: the memo witnesses (base, cls) live in this epoch — no
	// VM type-map lookup, no derivation, just the memoized permutation.
	if l := s.memoHit(base, classHash); l != nil {
		if field < 0 || field >= len(l.Offsets) {
			if r.tel != nil {
				r.histProbe.Observe(0)
				r.tel.Emit(telemetry.Event{Kind: telemetry.EvFieldMiss, Addr: base, Class: classHash, Field: field})
			}
			return 0, exectrace.ResStatic, nil
		}
		if r.tel != nil {
			r.histProbe.Observe(0)
			r.tel.Emit(telemetry.Event{Kind: telemetry.EvFieldHit, Addr: base, Class: classHash, Field: field})
		}
		// The memo witnessed (base, class) live this epoch — the same
		// clean-resolution guarantee the layout table needs.
		r.cache.Put(base, classHash, field, int32(l.Offsets[field]))
		return l.Offsets[field], exectrace.ResStateless, nil
	}
	st, tracked := v.ObjectType(base)
	if !tracked || st == nil || (cls.Struct != st && !s.inTable(st)) {
		// Untracked object: the compiler's static layout, same as the
		// metadata strategy's unregistered arm. A dangling pointer also
		// lands here — stateless mode keeps no ghost records, so this is
		// where UAF detection degrades (DESIGN.md §12).
		if r.tel != nil {
			r.histProbe.Observe(3)
			r.tel.Emit(telemetry.Event{Kind: telemetry.EvFieldMiss, Addr: base, Class: classHash, Field: field})
		}
		if field < 0 || field >= len(cls.Members) {
			return 0, 0, fmt.Errorf("polar: field %d out of range for %s", field, cls.Name())
		}
		return cls.Members[field].StaticOffset, exectrace.ResStatic, nil
	}
	if cls.Struct != st {
		// The access site was compiled against a different class than
		// the allocation's tracked type — type confusion, caught without
		// any metadata because the VM's type map is the discriminator.
		actual, ok := r.table.ByName(st.Name)
		if !ok {
			return 0, 0, fmt.Errorf("polar: tracked type %s not in table", st.Name)
		}
		l, err := s.layoutFor(actual, base)
		if err != nil {
			return 0, 0, err
		}
		if r.tel != nil {
			r.histProbe.Observe(0)
			r.tel.Emit(telemetry.Event{Kind: telemetry.EvFieldMiss, Addr: base, Class: classHash, Field: field})
		}
		if err := r.violate(ViolationTypeConfusion, base, actual.Hash, nil); err != nil {
			return 0, 0, err
		}
		// Warn policy: resolve against the actual object's derived
		// layout — the confused access touches whatever that permutation
		// put at this index (§III.B.2's nondeterminism).
		if field < 0 || field >= len(l.Offsets) {
			return 0, exectrace.ResStatic, nil
		}
		return l.Offsets[field], exectrace.ResStateless, nil
	}
	// Clean path: the expected class IS the tracked type (pointer
	// identity — no name lookup on the hot path).
	l, err := s.layoutFor(cls, base)
	if err != nil {
		return 0, 0, err
	}
	if field < 0 || field >= len(l.Offsets) {
		// Confused index beyond the member count: land on the base,
		// mirroring the metadata strategy.
		if r.tel != nil {
			r.histProbe.Observe(0)
			r.tel.Emit(telemetry.Event{Kind: telemetry.EvFieldMiss, Addr: base, Class: classHash, Field: field})
		}
		return 0, exectrace.ResStatic, nil
	}
	if r.tel != nil {
		r.histProbe.Observe(0)
		r.tel.Emit(telemetry.Event{Kind: telemetry.EvFieldHit, Addr: base, Class: classHash, Field: field})
	}
	// Clean tracked resolution, now in the memo. Without a memo there
	// is no table either (the nocache ablation arm).
	if s.memo != nil {
		r.cache.Put(base, classHash, field, int32(l.Offsets[field]))
	}
	return l.Offsets[field], exectrace.ResStateless, nil
}

// inTable reports whether a tracked struct type is one this strategy
// lays out (identical to managed()'s discriminator, without deriving).
func (s *statelessResolver) inTable(st *ir.StructType) bool {
	cls, ok := s.rt.table.ByName(st.Name)
	return ok && cls.Struct == st
}

// Alloc carves a MaxSize slab — the address does not exist before the
// allocation, so the chunk must fit whatever layout the address then
// selects (and every later epoch's, for rekeying).
func (s *statelessResolver) Alloc(v *vm.VM, cls *classinfo.Class) (uint64, *layout.Layout, error) {
	base, err := v.Heap.Alloc(s.maxSize(cls))
	if err != nil {
		return 0, nil, err
	}
	l, err := s.layoutFor(cls, base)
	if err != nil {
		return 0, nil, fmt.Errorf("polar: layout for %s: %w", cls.Name(), err)
	}
	return base, l, nil
}

// BeginFree validates against the allocator itself — the only
// authority this strategy has. An address that was never a chunk is a
// bad free; a chunk that is no longer live is a double free (until the
// allocator recycles it, the same aliasing window the metadata
// strategy has once a ghost's base is re-registered).
func (s *statelessResolver) BeginFree(v *vm.VM, base uint64) (*layout.Layout, uint64, bool, error) {
	r := s.rt
	_, live, ok := v.Heap.SizeOf(base)
	if !ok {
		return nil, 0, false, r.violate(ViolationBadFree, base, 0, nil)
	}
	if !live {
		return nil, 0, false, r.violate(ViolationDoubleFree, base, 0, nil)
	}
	cls, l, err := s.managed(v, base)
	if err != nil {
		return nil, 0, false, err
	}
	if l == nil {
		// A live chunk the strategy does not lay out (raw allocation):
		// plain free, no sweep, no violation — the allocator vouches
		// for it.
		return nil, 0, true, nil
	}
	if bad, err := r.checkTraps(v, base, l); err != nil {
		return nil, 0, false, err
	} else if bad >= 0 {
		if verr := r.violateWith(ViolationTrap, base+uint64(bad), cls.Hash, l.Hash(), nil); verr != nil {
			return nil, 0, false, verr
		}
	}
	return l, cls.Hash, true, nil
}

// FinishFree clears the dying object's memo slot and its layout-table
// entries. Not for derivation correctness (a recycled base re-derives
// the same layout anyway) but for the liveness witness: a populated
// slot lets Resolve skip the VM type-map check, so it must never
// outlive the object it vouches for. The slot keeps its layout storage
// for the next object that maps to it.
func (s *statelessResolver) FinishFree(v *vm.VM, base uint64) error {
	if s.memo != nil {
		if e := &s.memo[s.memoIdx(base)]; e.base == base {
			s.rt.cache.Invalidate(base, len(e.l.Offsets))
			e.base = 0
		}
	}
	return nil
}

// AfterFree advances the epoch-rekey schedule. It runs after the chunk
// is back in the allocator, so a triggered rekey only remaps objects
// that are still alive.
func (s *statelessResolver) AfterFree(v *vm.VM) error {
	if s.rekeyEvery == 0 {
		return nil
	}
	s.freeCount++
	if s.freeCount%s.rekeyEvery != 0 {
		return nil
	}
	_, err := s.Rerandomize(v)
	return err
}

// Rerandomize advances the derivation epoch and remaps every live
// managed object from its outgoing layout to the incoming one — the
// stateless replacement for per-object ghost layouts: instead of
// remembering what a dangling pointer would see, the whole heap moves
// out from under it. The walk is in ascending base order, so the event
// and trace streams stay deterministic at any -parallel width.
func (s *statelessResolver) Rerandomize(v *vm.VM) (bool, error) {
	r := s.rt
	oldEpoch := s.epoch
	s.epoch++
	s.rekeys++
	// Every derived offset changes with the epoch: drop the whole
	// layout table before any object moves.
	r.layoutGen++
	s.bases = v.AppendTrackedBases(s.bases[:0])
	for _, base := range s.bases {
		st, ok := v.ObjectType(base)
		if !ok || st == nil {
			continue
		}
		cls, ok := r.table.ByName(st.Name)
		if !ok || cls.Struct != st {
			continue // raw allocation: not ours to move
		}
		ol := &s.outgoing
		if err := s.derive(ol, cls, r.inputsOf(cls), base, oldEpoch); err != nil {
			return false, err
		}
		nl, err := s.layoutFor(cls, base)
		if err != nil {
			return false, err
		}
		if ol.Hash() != nl.Hash() {
			// Stage every member under the outgoing layout first — old
			// and new positions overlap arbitrarily.
			img := s.stage[:0]
			for i, m := range cls.Members {
				n := len(img)
				img = slices.Grow(img, m.Size)[:n+m.Size]
				if err := v.Mem.ReadInto(base+uint64(ol.Offsets[i]), img[n:]); err != nil {
					return false, err
				}
			}
			s.stage = img
			for i, m := range cls.Members {
				if err := v.Mem.WriteBytes(base+uint64(nl.Offsets[i]), img[:m.Size]); err != nil {
					return false, err
				}
				img = img[m.Size:]
			}
		}
		if err := r.armTraps(v, base, nl); err != nil {
			return false, err
		}
		if r.tel != nil {
			r.tel.Emit(telemetry.Event{
				Kind: telemetry.EvMemcpyRerand, Addr: base, Size: nl.TotalSize,
				Class: cls.Hash, Layout: nl.Hash(), Detail: cls.Name(),
			})
		}
	}
	return true, nil
}

// Memcpy mirrors the metadata strategy's §IV.A.2 semantics with derived
// layouts. RerandomizeOnCopy has no meaning here: the destination's
// layout is always the one its own address derives — re-randomization
// on copy is inherent, not optional.
//
// It is the one operation that holds two derived layouts at once. When
// deriving the destination's would overwrite the source's storage (both
// bases map to one memo slot, or the memo is off), the source layout is
// copied out first, so the memo goes through the same states either way.
func (s *statelessResolver) Memcpy(v *vm.VM, dst, src uint64, n int, classHash uint64) error {
	r := s.rt
	srcCls, srcL, err := s.managed(v, src)
	if err != nil {
		return err
	}
	if srcL != nil && (s.memo == nil || s.memoIdx(src) == s.memoIdx(dst)) {
		srcL.CopyInto(&s.srcCopy)
		srcL = &s.srcCopy
	}
	if srcL == nil {
		// Raw source; if the destination is managed we must write
		// member-wise into its derived layout from a static-layout
		// source image.
		dstCls, dstL, err := s.managed(v, dst)
		if err != nil {
			return err
		}
		if dstL != nil {
			return r.copyStaticToRandom(v, dst, dstL, dstCls, src)
		}
		return v.Mem.Copy(dst, src, n)
	}
	if bad, err := r.checkTraps(v, src, srcL); err != nil {
		return err
	} else if bad >= 0 {
		if verr := r.violateWith(ViolationTrap, src+uint64(bad), srcCls.Hash, srcL.Hash(), nil); verr != nil {
			return verr
		}
	}
	dstCls, dstL, err := s.managed(v, dst)
	if err != nil {
		return err
	}
	if dstL != nil {
		if dstCls.Hash != srcCls.Hash {
			// Type-confused write, same as the metadata strategy.
			if err := r.violateWith(ViolationTypeConfusion, dst, dstCls.Hash, dstL.Hash(), nil); err != nil {
				return err
			}
			// Warn policy: the raw copy the unprotected program would do.
			return v.Mem.Copy(dst, src, n)
		}
		return r.copyMemberwise(v, dst, dstL, src, srcL, srcCls)
	}
	// Untracked destination. Adopt it only when the chunk can hold any
	// epoch's layout (the rekey invariant); otherwise copy out to the
	// static layout so static-arm accesses still resolve.
	if size, live, isChunk := v.Heap.SizeOf(dst); isChunk && live && size >= s.maxSize(srcCls) {
		v.TrackObject(dst, srcCls.Struct)
		if s.memo != nil {
			// dst's resolution path changed (static -> derived).
			r.cache.Invalidate(dst, len(srcCls.Members))
		}
		dl, err := s.layoutFor(srcCls, dst)
		if err != nil {
			return err
		}
		r.noteLiveObject()
		if err := r.armTraps(v, dst, dl); err != nil {
			return err
		}
		if r.tel != nil {
			r.tel.Emit(telemetry.Event{
				Kind: telemetry.EvMemcpyRerand, Addr: dst, Size: n,
				Class: srcCls.Hash, Layout: dl.Hash(), Detail: srcCls.Name(),
			})
		}
		return r.copyMemberwise(v, dst, dl, src, srcL, srcCls)
	}
	return r.copyRandomToStatic(v, dst, src, srcL, srcCls)
}

// Check sweeps a managed object's derived booby traps.
func (s *statelessResolver) Check(v *vm.VM, base uint64) (int64, error) {
	r := s.rt
	cls, l, err := s.managed(v, base)
	if err != nil {
		return 0, err
	}
	if l == nil {
		return 1, nil
	}
	bad, err := r.checkTraps(v, base, l)
	if err != nil {
		return 0, err
	}
	if bad < 0 {
		return 1, nil
	}
	if verr := r.violateWith(ViolationTrap, base+uint64(bad), cls.Hash, l.Hash(), nil); verr != nil {
		return 0, verr
	}
	return 0, nil
}

// MetadataBytes is identically zero — the whole point. The derivation
// memo is a fixed-size cache that does not grow with the live-object
// population, so it does not count as per-object metadata.
func (s *statelessResolver) MetadataBytes() uint64 { return 0 }

// Epoch returns the current re-randomization epoch (tests, stats).
func (s *statelessResolver) Epoch() uint64 { return s.epoch }

// Rekeys returns how many epoch advances have run.
func (s *statelessResolver) Rekeys() uint64 { return s.rekeys }
