package core

import (
	"reflect"
	"testing"

	"polar/internal/telemetry"
	"polar/internal/telemetry/exectrace"
)

// statelessHarness is newViolationHarness with the stateless resolver
// selected (and optionally a rekey schedule).
func statelessHarness(t *testing.T, rekeyEvery int, mod func(*Config)) *violationHarness {
	t.Helper()
	return newViolationHarness(t, func(c *Config) {
		c.LayoutMode = LayoutModeStateless
		c.RekeyEvery = rekeyEvery
		if mod != nil {
			mod(c)
		}
	})
}

// resolveAll returns the resolved address of every member of class hash
// on the object at base.
func resolveAll(t *testing.T, h *violationHarness, base, hash uint64, nFields int) []int64 {
	t.Helper()
	out := make([]int64, nFields)
	for f := 0; f < nFields; f++ {
		addr, err := h.r.olrGetptr(h.v, base, f, hash)
		if err != nil {
			t.Fatalf("olrGetptr(field %d): %v", f, err)
		}
		out[f] = addr
	}
	return out
}

// TestStatelessResolveDeterministic: the derivation is a pure function
// of (seed, epoch, class, base) — repeated resolution of the same object
// is stable, an identically-seeded runtime reproduces it exactly, and no
// metadata structure is ever consulted (MetaProbes == 0, zero metadata
// bytes, empty store).
func TestStatelessResolveDeterministic(t *testing.T) {
	h1 := statelessHarness(t, 0, nil)
	h2 := statelessHarness(t, 0, nil)

	base1 := h1.alloc(h1.hashA)
	base2 := h2.alloc(h2.hashA)
	if base1 != base2 {
		t.Fatalf("same seed allocated different bases: %#x vs %#x", base1, base2)
	}
	got1 := resolveAll(t, h1, base1, h1.hashA, 3)
	got2 := resolveAll(t, h2, base2, h2.hashA, 3)
	if !reflect.DeepEqual(got1, got2) {
		t.Fatalf("same seed resolved different offsets: %v vs %v", got1, got2)
	}
	// Repeated resolution is stable (memo hit or re-derivation — same answer).
	if again := resolveAll(t, h1, base1, h1.hashA, 3); !reflect.DeepEqual(again, got1) {
		t.Fatalf("re-resolution drifted: %v vs %v", again, got1)
	}
	// Distinct members land at distinct addresses.
	seen := map[int64]bool{}
	for _, a := range got1 {
		if seen[a] {
			t.Fatalf("two members resolved to the same address: %v", got1)
		}
		seen[a] = true
	}

	st := h1.r.Stats()
	if st.MetaProbes != 0 {
		t.Fatalf("MetaProbes = %d, want 0 in stateless mode", st.MetaProbes)
	}
	if st.CacheHits != 0 || st.CacheMisses != 0 {
		t.Fatalf("offset cache touched (hits=%d misses=%d) in stateless mode", st.CacheHits, st.CacheMisses)
	}
	if got := h1.r.Resolver().MetadataBytes(); got != 0 {
		t.Fatalf("MetadataBytes() = %d, want 0", got)
	}
	if got := h1.r.MetadataBytesPerLiveObject(); got != 0 {
		t.Fatalf("MetadataBytesPerLiveObject() = %v, want 0", got)
	}
	if live, total := h1.r.Store().Counts(); live != 0 || total != 0 {
		t.Fatalf("MetaStore populated (live=%d total=%d) in stateless mode", live, total)
	}
	if mode := h1.r.Resolver().Mode(); mode != LayoutModeStateless {
		t.Fatalf("resolver mode = %v", mode)
	}
}

// TestStatelessDistinctObjectsDistinctLayouts: two same-class objects at
// different bases usually derive different permutations — the point of
// keying the hash on the address. With only a handful of draws this is
// probabilistic, so the assertion is over several objects.
func TestStatelessDistinctObjectsDistinctLayouts(t *testing.T) {
	h := statelessHarness(t, 0, nil)
	s := h.r.resolver.(*statelessResolver)
	cls, ok := h.r.table.ByHash(h.hashA)
	if !ok {
		t.Fatal("class A missing")
	}
	seen := map[uint64]bool{}
	for i := 0; i < 16; i++ {
		base := h.alloc(h.hashA)
		l, err := s.layoutFor(cls, base)
		if err != nil {
			t.Fatalf("layoutFor: %v", err)
		}
		seen[l.Hash()] = true
	}
	if len(seen) < 2 {
		t.Fatalf("16 objects all derived the same layout — address not keyed in")
	}
}

// TestStatelessDetectionMatrix pins which ViolationKinds still fire
// without metadata (DESIGN.md §12): bad-class, bad-free, double-free,
// type-confusion and booby traps are caught; a use-after-free access
// instead degrades silently to the static-fallback arm.
func TestStatelessDetectionMatrix(t *testing.T) {
	cases := []struct {
		kind    ViolationKind
		trigger func(t *testing.T, h *violationHarness) error
		check   func(t *testing.T, h *violationHarness, rec ViolationRecord)
	}{
		{
			kind: ViolationBadClass,
			trigger: func(t *testing.T, h *violationHarness) error {
				_, err := h.r.olrMalloc(h.v, 0xdead)
				return err
			},
			check: func(t *testing.T, h *violationHarness, rec ViolationRecord) {
				if rec.Addr != 0 || rec.ClassHash != 0xdead {
					t.Fatalf("record = %+v", rec)
				}
			},
		},
		{
			kind: ViolationBadFree,
			trigger: func(t *testing.T, h *violationHarness) error {
				return h.r.olrFree(h.v, 0x12345)
			},
			check: func(t *testing.T, h *violationHarness, rec ViolationRecord) {
				// No allocator chunk at this address, and no metadata to
				// name a class: the record carries the address alone.
				if rec.Addr != 0x12345 || rec.ClassHash != 0 || rec.Class != "?" {
					t.Fatalf("record = %+v", rec)
				}
			},
		},
		{
			kind: ViolationDoubleFree,
			trigger: func(t *testing.T, h *violationHarness) error {
				base := h.alloc(h.hashA)
				if err := h.r.olrFree(h.v, base); err != nil {
					t.Fatalf("first free: %v", err)
				}
				return h.r.olrFree(h.v, base)
			},
			check: func(t *testing.T, h *violationHarness, rec ViolationRecord) {
				// The allocator knows the chunk is dead but not what class
				// lived there — liveness is the only authority in this mode.
				if rec.ClassHash != 0 || rec.Class != "?" {
					t.Fatalf("record = %+v", rec)
				}
			},
		},
		{
			kind: ViolationTypeConfusion,
			trigger: func(t *testing.T, h *violationHarness) error {
				base := h.alloc(h.hashA)
				_, err := h.r.olrGetptr(h.v, base, 0, h.hashB)
				return err
			},
			check: func(t *testing.T, h *violationHarness, rec ViolationRecord) {
				// Caught via the VM type map; the record carries the
				// ALLOCATION class, same forensic contract as metadata mode.
				if rec.ClassHash != h.hashA || rec.Class != "A" {
					t.Fatalf("record = %+v", rec)
				}
			},
		},
		{
			kind: ViolationTrap,
			trigger: func(t *testing.T, h *violationHarness) error {
				base := h.alloc(h.hashA)
				s := h.r.resolver.(*statelessResolver)
				cls, _ := h.r.table.ByHash(h.hashA)
				l, err := s.layoutFor(cls, base)
				if err != nil {
					t.Fatalf("layoutFor: %v", err)
				}
				off := -1
				for _, sl := range l.Slots {
					if sl.Trap {
						off = sl.Offset
						break
					}
				}
				if off < 0 {
					t.Fatal("no trap slot in derived layout")
				}
				cur, err := h.v.Mem.ReadU(base+uint64(off), 8)
				if err != nil {
					t.Fatalf("read canary: %v", err)
				}
				if err := h.v.Mem.WriteU(base+uint64(off), 8, cur^0xdeadbeef); err != nil {
					t.Fatalf("clobber canary: %v", err)
				}
				_, cerr := h.r.olrCheck(h.v, base)
				return cerr
			},
			check: func(t *testing.T, h *violationHarness, rec ViolationRecord) {
				if rec.ClassHash != h.hashA || rec.LayoutID == 0 {
					t.Fatalf("record = %+v", rec)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.kind.String(), func(t *testing.T) {
			h := statelessHarness(t, 0, nil)
			err := tc.trigger(t, h)
			rec := assertViolation(t, h, err, tc.kind)
			if tc.check != nil {
				tc.check(t, h, rec)
			}
		})
	}
}

// TestStatelessUAFDegradesToStaticArm: with no ghost records a dangling
// access cannot be flagged — it must resolve through the static fallback
// with NO violation, the documented degradation (Config.DetectUAF is
// inert in this mode).
func TestStatelessUAFDegradesToStaticArm(t *testing.T) {
	h := statelessHarness(t, 0, nil)
	base := h.alloc(h.hashA)
	if err := h.r.olrFree(h.v, base); err != nil {
		t.Fatalf("free: %v", err)
	}
	cls, _ := h.r.table.ByHash(h.hashA)
	addr, err := h.r.olrGetptr(h.v, base, 1, h.hashA)
	if err != nil {
		t.Fatalf("dangling access errored (want silent static-arm degrade): %v", err)
	}
	if want := int64(base) + int64(cls.Members[1].StaticOffset); addr != want {
		t.Fatalf("dangling access resolved %#x, want static offset %#x", addr, want)
	}
	if recs := h.r.ViolationRecords(); len(recs) != 0 {
		t.Fatalf("dangling access produced violations: %+v", recs)
	}
}

// TestStatelessEpochRekeyDeterminism drives the RekeyEvery schedule and
// pins the satellite contract: member values survive the remap, the
// epoch really advances, and an identically-seeded runtime replaying the
// same schedule produces byte-identical resolutions and the same event
// stream — the property that keeps the evalrun trace gate green at any
// -parallel width (each task re-derives everything from its own seed;
// nothing depends on scheduling).
func TestStatelessEpochRekeyDeterminism(t *testing.T) {
	run := func(h *violationHarness) ([]int64, []telemetry.Event, uint64) {
		// Three live A objects and one B; then four frees of throwaway
		// objects drive the epoch forward (RekeyEvery=2 → two rekeys).
		var live []uint64
		for i := 0; i < 3; i++ {
			live = append(live, h.alloc(h.hashA))
		}
		bObj := h.alloc(h.hashB)
		// Stamp recognizable values through resolved member addresses.
		for i, base := range live {
			addrs := resolveAll(t, h, base, h.hashA, 3)
			// Member 1 (x: i64) and 2 (y: i32) are data; member 0 is the fptr.
			if err := h.v.Mem.WriteU(uint64(addrs[1]), 8, 0xa0a0+uint64(i)); err != nil {
				t.Fatalf("write x: %v", err)
			}
			if err := h.v.Mem.WriteU(uint64(addrs[2]), 4, 0xb0b0+uint64(i)); err != nil {
				t.Fatalf("write y: %v", err)
			}
		}
		for i := 0; i < 4; i++ {
			tmp := h.alloc(h.hashA)
			if err := h.r.olrFree(h.v, tmp); err != nil {
				t.Fatalf("schedule free %d: %v", i, err)
			}
		}
		// After the rekeys: values must still read back through the
		// CURRENT epoch's derivation.
		var resolved []int64
		for i, base := range live {
			addrs := resolveAll(t, h, base, h.hashA, 3)
			resolved = append(resolved, addrs...)
			x, err := h.v.Mem.ReadU(uint64(addrs[1]), 8)
			if err != nil {
				t.Fatalf("read x: %v", err)
			}
			y, err := h.v.Mem.ReadU(uint64(addrs[2]), 4)
			if err != nil {
				t.Fatalf("read y: %v", err)
			}
			if x != 0xa0a0+uint64(i) || y != 0xb0b0+uint64(i) {
				t.Fatalf("object %d lost its values across rekey: x=%#x y=%#x", i, x, y)
			}
		}
		resolved = append(resolved, resolveAll(t, h, bObj, h.hashB, 2)...)
		s := h.r.resolver.(*statelessResolver)
		return resolved, h.rec.Events(), s.Epoch()
	}

	h1 := statelessHarness(t, 2, nil)
	h2 := statelessHarness(t, 2, nil)
	r1, ev1, ep1 := run(h1)
	r2, ev2, ep2 := run(h2)

	if ep1 == 0 {
		t.Fatal("epoch never advanced under RekeyEvery=2 with 4 frees")
	}
	if ep1 != ep2 {
		t.Fatalf("epochs diverged: %d vs %d", ep1, ep2)
	}
	if s := h1.r.resolver.(*statelessResolver); s.Rekeys() != ep1 {
		t.Fatalf("Rekeys() = %d, want %d", s.Rekeys(), ep1)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("same seed + schedule resolved differently:\n%v\n%v", r1, r2)
	}
	if !reflect.DeepEqual(ev1, ev2) {
		t.Fatalf("same seed + schedule emitted different event streams (%d vs %d events)", len(ev1), len(ev2))
	}
	// The remap announced itself: at least one EvMemcpyRerand per live
	// object per rekey is too strong (identity-layout classes skip the
	// move but still emit), so just require the events exist.
	if n := len(h1.rec.ByKind(telemetry.EvMemcpyRerand)); n == 0 {
		t.Fatal("no EvMemcpyRerand events from the rekey walk")
	}
	if recs := h1.r.ViolationRecords(); len(recs) != 0 {
		t.Fatalf("rekey schedule produced violations: %+v", recs)
	}
}

// TestStatelessExplicitRerandomize: Runtime.Rerandomize reports true in
// stateless mode and re-resolution after it still works (fresh epoch).
func TestStatelessExplicitRerandomize(t *testing.T) {
	h := statelessHarness(t, 0, nil)
	base := h.alloc(h.hashA)
	before := resolveAll(t, h, base, h.hashA, 3)
	ok, err := h.r.Rerandomize(h.v)
	if err != nil {
		t.Fatalf("Rerandomize: %v", err)
	}
	if !ok {
		t.Fatal("stateless Rerandomize reported no-op")
	}
	after := resolveAll(t, h, base, h.hashA, 3)
	if len(before) != len(after) {
		t.Fatalf("member count changed: %v vs %v", before, after)
	}
	// Metadata mode has no global rekey: it must report (false, nil).
	hm := newViolationHarness(t, nil)
	ok, err = hm.r.Rerandomize(hm.v)
	if err != nil || ok {
		t.Fatalf("metadata Rerandomize = (%v, %v), want (false, nil)", ok, err)
	}
}

// TestProbeBucketsCanonical is the assertion promised at
// telemetry.ProbeLenBuckets: the bucket list is exactly {0,1,2,3,4},
// and each strategy's runtime paths observe only its documented buckets
// — stateless derivations land in bucket 0 (and 3 for the static arm),
// never 1 or 2; metadata mode never lands in 0.
func TestProbeBucketsCanonical(t *testing.T) {
	want := []float64{0, 1, 2, 3, 4}
	if !reflect.DeepEqual(telemetry.ProbeLenBuckets, want) {
		t.Fatalf("telemetry.ProbeLenBuckets = %v, want %v (update the doc comment AND this test together)",
			telemetry.ProbeLenBuckets, want)
	}

	// Stateless: derived resolutions observe 0, static-arm falls in 3.
	hs := statelessHarness(t, 0, nil)
	base := hs.alloc(hs.hashA)
	for i := 0; i < 8; i++ {
		if _, err := hs.r.olrGetptr(hs.v, base, 1, hs.hashA); err != nil {
			t.Fatalf("getptr: %v", err)
		}
	}
	if err := hs.r.olrFree(hs.v, base); err != nil {
		t.Fatalf("free: %v", err)
	}
	if _, err := hs.r.olrGetptr(hs.v, base, 1, hs.hashA); err != nil {
		t.Fatalf("static-arm getptr: %v", err)
	}
	snap := hs.r.Telemetry().Registry.Snapshot()
	hist, ok := snap.Histograms[telemetry.MetricCacheProbeLen]
	if !ok {
		t.Fatalf("histogram %s not registered", telemetry.MetricCacheProbeLen)
	}
	st := hs.r.Stats()
	if hist.Count != st.MemberAccess {
		t.Fatalf("stateless histogram count = %d, want one observation per access (%d)", hist.Count, st.MemberAccess)
	}
	if hist.Counts[0] != 8 {
		t.Fatalf("stateless bucket 0 = %d, want 8 derived resolutions", hist.Counts[0])
	}
	if hist.Counts[1] != 0 || hist.Counts[2] != 0 {
		t.Fatalf("stateless mode touched metadata buckets: 1=%d 2=%d", hist.Counts[1], hist.Counts[2])
	}
	if hist.Counts[3] != 1 {
		t.Fatalf("stateless bucket 3 = %d, want 1 static-arm access", hist.Counts[3])
	}

	// Metadata: bucket 0 must stay empty (cache hits are probe length 1).
	hm := newViolationHarness(t, nil)
	mbase := hm.alloc(hm.hashA)
	for i := 0; i < 8; i++ {
		if _, err := hm.r.olrGetptr(hm.v, mbase, 1, hm.hashA); err != nil {
			t.Fatalf("getptr: %v", err)
		}
	}
	msnap := hm.r.Telemetry().Registry.Snapshot()
	mhist := msnap.Histograms[telemetry.MetricCacheProbeLen]
	if mhist.Counts[0] != 0 {
		t.Fatalf("metadata bucket 0 = %d, want 0", mhist.Counts[0])
	}
	mst := hm.r.Stats()
	if mhist.Counts[1] != mst.CacheHits || mhist.Counts[2] != mst.CacheMisses {
		t.Fatalf("metadata buckets 1/2 = %d/%d, want hits/misses %d/%d",
			mhist.Counts[1], mhist.Counts[2], mst.CacheHits, mst.CacheMisses)
	}
}

// TestStatelessNullBaseNeverHitsFreedSlot: a freed object's memo slot
// keeps its class, epoch and layout storage and marks itself empty with
// base 0, so an access through a null pointer of the same class must
// not read that slot as a hit. With a one-slot memo every base shares
// the slot; the null access resolves on the static arm.
func TestStatelessNullBaseNeverHitsFreedSlot(t *testing.T) {
	h := statelessHarness(t, 0, func(c *Config) { c.CacheSize = 1 })
	base := h.alloc(h.hashA)
	if err := h.r.olrFree(h.v, base); err != nil {
		t.Fatalf("free: %v", err)
	}
	cls, _ := h.r.table.ByHash(h.hashA)
	for f := range cls.Members {
		off, res, err := h.r.resolver.Resolve(h.v, 0, f, h.hashA)
		if err != nil {
			t.Fatalf("Resolve(null, %d): %v", f, err)
		}
		if res != exectrace.ResStatic || off != cls.Members[f].StaticOffset {
			t.Fatalf("null access to field %d resolved (%d, %v), want the static offset %d", f, off, res, cls.Members[f].StaticOffset)
		}
	}
}
