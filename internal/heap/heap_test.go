package heap

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"polar/internal/telemetry"
)

func newTestAllocator(opts ...Option) *Allocator {
	return New(0x1000, 1<<20, opts...)
}

func TestAllocBasic(t *testing.T) {
	a := newTestAllocator()
	p, err := a.Alloc(24)
	if err != nil {
		t.Fatal(err)
	}
	if p%16 != 0 {
		t.Errorf("address %#x not 16-aligned", p)
	}
	size, live, ok := a.SizeOf(p)
	if !ok || !live {
		t.Fatalf("SizeOf(%#x) = %d %v %v", p, size, live, ok)
	}
	if size < 24 {
		t.Errorf("usable size %d < requested 24", size)
	}
}

func TestAllocRejectsBadSizes(t *testing.T) {
	a := newTestAllocator()
	for _, n := range []int{0, -1, -100} {
		if _, err := a.Alloc(n); !errors.Is(err, ErrBadSize) {
			t.Errorf("Alloc(%d) = %v, want ErrBadSize", n, err)
		}
	}
}

func TestFreeErrors(t *testing.T) {
	a := newTestAllocator()
	if err := a.Free(0xdead); !errors.Is(err, ErrInvalidFree) {
		t.Errorf("free of junk = %v, want ErrInvalidFree", err)
	}
	p, _ := a.Alloc(32)
	if err := a.Free(p); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(p); !errors.Is(err, ErrDoubleFree) {
		t.Errorf("double free = %v, want ErrDoubleFree", err)
	}
}

// TestLIFOReuse is the property the UAF experiments rely on: freeing a
// chunk and allocating the same size class immediately returns the same
// address.
func TestLIFOReuse(t *testing.T) {
	a := newTestAllocator()
	p, _ := a.Alloc(48)
	if err := a.Free(p); err != nil {
		t.Fatal(err)
	}
	q, _ := a.Alloc(40) // same class (48)
	if q != p {
		t.Fatalf("no LIFO reuse: freed %#x, got %#x", p, q)
	}
	st := a.Stats()
	if st.Reuses != 1 {
		t.Errorf("reuses = %d, want 1", st.Reuses)
	}
}

func TestQuarantineDelaysReuse(t *testing.T) {
	a := newTestAllocator(WithQuarantine(2))
	p, _ := a.Alloc(32)
	if err := a.Free(p); err != nil {
		t.Fatal(err)
	}
	q, _ := a.Alloc(32)
	if q == p {
		t.Fatal("quarantined chunk reused immediately")
	}
	// Push p out of the quarantine with two more frees.
	r1, _ := a.Alloc(32)
	r2, _ := a.Alloc(32)
	if err := a.Free(r1); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(r2); err != nil {
		t.Fatal(err)
	}
	got, _ := a.Alloc(32)
	if got != p {
		t.Fatalf("expected %#x released from quarantine, got %#x", p, got)
	}
}

func TestLargeAllocations(t *testing.T) {
	a := newTestAllocator()
	p, err := a.Alloc(100_000)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Free(p); err != nil {
		t.Fatal(err)
	}
	q, err := a.Alloc(100_000)
	if err != nil {
		t.Fatal(err)
	}
	if q != p {
		t.Errorf("large chunk not reused: %#x vs %#x", p, q)
	}
}

func TestOutOfMemory(t *testing.T) {
	a := New(0x1000, 1024)
	if _, err := a.Alloc(512); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Alloc(4096); !errors.Is(err, ErrOutOfMemory) {
		t.Errorf("want ErrOutOfMemory, got %v", err)
	}
}

func TestFindChunk(t *testing.T) {
	a := newTestAllocator()
	p, _ := a.Alloc(64)
	base, size, live, ok := a.FindChunk(p + 37)
	if !ok || base != p || !live || size < 64 {
		t.Fatalf("FindChunk(interior) = %#x %d %v %v", base, size, live, ok)
	}
	if _, _, _, ok := a.FindChunk(p + 1<<19); ok {
		t.Error("FindChunk found a chunk in untouched space")
	}
}

func TestStatsAndReset(t *testing.T) {
	a := newTestAllocator()
	p1, _ := a.Alloc(32)
	p2, _ := a.Alloc(128)
	if err := a.Free(p1); err != nil {
		t.Fatal(err)
	}
	st := a.Stats()
	if st.Allocs != 2 || st.Frees != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.BytesPeak < st.BytesLive {
		t.Errorf("peak %d < live %d", st.BytesPeak, st.BytesLive)
	}
	if a.LiveCount() != 1 {
		t.Errorf("live count = %d, want 1", a.LiveCount())
	}
	_ = p2
	a.Reset()
	if a.LiveCount() != 0 || a.Stats().Allocs != 0 {
		t.Error("reset did not clear state")
	}
}

// TestAllocatorInvariantsQuick drives random alloc/free sequences and
// checks: no two live chunks overlap, addresses stay in range, and
// SizeOf is consistent.
func TestAllocatorInvariantsQuick(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := newTestAllocator()
		type chunkRec struct {
			addr uint64
			size int
		}
		var live []chunkRec
		for op := 0; op < 300; op++ {
			if len(live) == 0 || rng.Intn(3) != 0 {
				n := 1 + rng.Intn(300)
				p, err := a.Alloc(n)
				if err != nil {
					return false
				}
				if !a.Contains(p) {
					return false
				}
				sz, liveNow, ok := a.SizeOf(p)
				if !ok || !liveNow || sz < n {
					return false
				}
				live = append(live, chunkRec{p, sz})
			} else {
				i := rng.Intn(len(live))
				if err := a.Free(live[i].addr); err != nil {
					return false
				}
				live = append(live[:i], live[i+1:]...)
			}
		}
		// Overlap check over live chunks.
		for i := range live {
			for j := i + 1; j < len(live); j++ {
				aLo, aHi := live[i].addr, live[i].addr+uint64(live[i].size)
				bLo, bHi := live[j].addr, live[j].addr+uint64(live[j].size)
				if aLo < bHi && bLo < aHi {
					return false
				}
			}
		}
		return a.LiveCount() == len(live)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFindChunkLargeInterior(t *testing.T) {
	// Every interior address of a large chunk resolves to it, however
	// far past the largest size class, live or freed; a small chunk
	// carved after it and the untouched space beyond resolve as usual.
	a := newTestAllocator()
	p, err := a.Alloc(100_000)
	if err != nil {
		t.Fatal(err)
	}
	q, err := a.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	size, _, _ := a.SizeOf(p)
	for _, off := range []uint64{0, 16, 40_000, 90_000, uint64(size) - 1} {
		if base, sz, live, ok := a.FindChunk(p + off); !ok || base != p || sz != size || !live {
			t.Errorf("FindChunk(base+%d) = %#x %d %v %v, want %#x %d live", off, base, sz, live, ok, p, size)
		}
	}
	if base, _, _, ok := a.FindChunk(q + 8); !ok || base != q {
		t.Errorf("FindChunk(small chunk interior) = %#x %v, want %#x", base, ok, q)
	}
	if err := a.Free(p); err != nil {
		t.Fatal(err)
	}
	if base, _, live, ok := a.FindChunk(p + 90_000); !ok || base != p || live {
		t.Errorf("FindChunk(freed far interior) = %#x %v %v, want %#x freed", base, live, ok, p)
	}
	if _, _, _, ok := a.FindChunk(q + 64); ok {
		t.Error("FindChunk found a chunk in untouched space past the last carve")
	}
}

// TestStatsPublishUnderReuse drives a free-then-realloc workload (the
// reuse-heavy pattern of the UAF experiments) and checks that
// Stats.Publish mirrors every counter and gauge into the registry and
// that the allocation-size histogram saw every allocation — the ones
// served from free lists as much as the fresh carves.
func TestStatsPublishUnderReuse(t *testing.T) {
	tel := telemetry.New()
	a := newTestAllocator(WithTelemetry(tel))
	const rounds = 64
	for i := 0; i < rounds; i++ {
		p, err := a.Alloc(40)
		if err != nil {
			t.Fatal(err)
		}
		q, err := a.Alloc(100)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Free(p); err != nil {
			t.Fatal(err)
		}
		if err := a.Free(q); err != nil {
			t.Fatal(err)
		}
	}
	st := a.Stats()
	if st.Allocs != 2*rounds || st.Frees != 2*rounds {
		t.Fatalf("allocs=%d frees=%d, want %d each", st.Allocs, st.Frees, 2*rounds)
	}
	// After the first round every allocation is a free-list hit, so the
	// workload exercises both serving paths and they partition Allocs.
	if st.Reuses == 0 || st.FreshCarve == 0 {
		t.Fatalf("reuses=%d fresh=%d, want both nonzero", st.Reuses, st.FreshCarve)
	}
	if st.Reuses+st.FreshCarve != st.Allocs {
		t.Fatalf("reuses+fresh = %d, want allocs %d", st.Reuses+st.FreshCarve, st.Allocs)
	}
	if st.BytesLive != 0 {
		t.Fatalf("bytes live = %d after freeing everything", st.BytesLive)
	}
	if st.BytesPeak == 0 {
		t.Fatal("bytes peak not tracked")
	}

	st.Publish(tel.Registry)
	snap := tel.Registry.Snapshot()
	for name, want := range map[string]uint64{
		"heap.allocs":       st.Allocs,
		"heap.frees":        st.Frees,
		"heap.reuses":       st.Reuses,
		"heap.fresh_carves": st.FreshCarve,
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("counter %s = %d, want %d", name, got, want)
		}
	}
	if got := snap.Gauges["heap.bytes_live"]; got != 0 {
		t.Errorf("gauge heap.bytes_live = %v, want 0", got)
	}
	if got := snap.Gauges["heap.bytes_peak"]; got != float64(st.BytesPeak) {
		t.Errorf("gauge heap.bytes_peak = %v, want %d", got, st.BytesPeak)
	}

	hist, ok := snap.Histograms[telemetry.MetricHeapAllocSize]
	if !ok {
		t.Fatalf("histogram %s not registered", telemetry.MetricHeapAllocSize)
	}
	if hist.Count != st.Allocs {
		t.Errorf("size histogram count = %d, want every allocation (%d)", hist.Count, st.Allocs)
	}
	if want := float64(rounds * (40 + 100)); hist.Sum != want {
		t.Errorf("size histogram sum = %v, want %v (requested, not rounded, sizes)", hist.Sum, want)
	}
}
