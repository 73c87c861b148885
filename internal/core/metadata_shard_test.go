package core

import (
	"sync"
	"testing"
)

// TestMetaStoreConcurrentShards hammers one sharded store from 8
// goroutines, each working a disjoint address range so every record has
// a single writer while the shards themselves are contended. Run under
// -race this is the regression test for the per-shard locking; the
// final Stats must account for every registration and retirement
// exactly once across shards.
func TestMetaStoreConcurrentShards(t *testing.T) {
	s := NewMetaStore()
	l := genLayout(t, 1)
	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := uint64(w+1) << 32
			for i := 0; i < perWorker; i++ {
				addr := base + uint64(i)*64
				s.Register(addr, uint64(w), l, l.TotalSize)
				if m, ok := s.Lookup(addr); !ok || m.Base != addr {
					t.Errorf("worker %d: lookup(%#x) = %v, %v", w, addr, m, ok)
					return
				}
				switch i % 3 {
				case 0: // stays live
				case 1:
					s.MarkFreed(addr)
				case 2:
					s.MarkFreed(addr)
					s.Drop(addr)
				}
			}
		}(w)
	}
	wg.Wait()

	// Per worker: n0 indices stayed live, n1 were freed in place, n2
	// were freed then dropped.
	n0 := (perWorker + 2) / 3
	n1 := (perWorker + 1) / 3
	n2 := perWorker / 3
	st := s.Stats()
	if want := uint64(workers * perWorker); st.Registered != want {
		t.Errorf("Registered = %d, want %d", st.Registered, want)
	}
	if want := uint64(workers * (n1 + n2)); st.Retired != want {
		t.Errorf("Retired = %d, want %d", st.Retired, want)
	}
	if want := workers * n0; s.LiveCount() != want {
		t.Errorf("LiveCount = %d, want %d", s.LiveCount(), want)
	}
	live, total := s.Counts()
	if live != workers*n0 || total != workers*(n0+n1) {
		t.Errorf("Counts = (%d, %d), want (%d, %d)",
			live, total, workers*n0, workers*(n0+n1))
	}
}

// TestSharedInternerAcrossStores checks the cross-instance dedup pool:
// two stores built over one LayoutInterner share layout pointers, and
// each store counts its own Intern calls — the first as unique, the
// second as shared — so the stores' counts sum to the interner's one
// distinct layout served twice.
func TestSharedInternerAcrossStores(t *testing.T) {
	in := NewLayoutInterner()
	s1 := NewSharedMetaStore(in)
	s2 := NewSharedMetaStore(in)
	l1 := genLayout(t, 7)
	l2 := genLayout(t, 7) // same seed: equal layout, distinct allocation

	got1 := s1.Intern(42, l1)
	got2 := s2.Intern(42, l2)
	if got1 != got2 {
		t.Fatal("equal layouts interned through a shared pool returned distinct pointers")
	}
	st1, st2 := s1.Stats(), s2.Stats()
	if st1.LayoutsUnique != 1 || st1.LayoutsShared != 0 {
		t.Fatalf("first store unique=%d shared=%d, want 1/0", st1.LayoutsUnique, st1.LayoutsShared)
	}
	if st2.LayoutsUnique != 0 || st2.LayoutsShared != 1 {
		t.Fatalf("second store unique=%d shared=%d, want 0/1", st2.LayoutsUnique, st2.LayoutsShared)
	}
	distinct := 0
	for _, chain := range in.dedup {
		distinct += len(chain)
	}
	if unique := st1.LayoutsUnique + st2.LayoutsUnique; unique != uint64(distinct) || distinct != 1 {
		t.Fatalf("stores' unique sum %d, interner holds %d layouts, want 1", unique, distinct)
	}
	if shared := st1.LayoutsShared + st2.LayoutsShared; shared != 1 {
		t.Fatalf("stores' shared sum %d, want 1 (two interns of one layout)", shared)
	}
}
