package telemetry

import (
	"math"
	"sync"
	"testing"
)

func TestRegistryMerge(t *testing.T) {
	dst := NewRegistry()
	dst.Counter("runs").Add(3)
	dst.Gauge("ratio").Set(0.25)
	h := dst.Histogram("lat", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(5)

	src := NewRegistry()
	src.Counter("runs").Add(2)
	src.Counter("new").Inc()
	src.Gauge("ratio").Set(0.75)
	sh := src.Histogram("lat", []float64{1, 10})
	sh.Observe(50)

	if err := dst.Merge(src.Snapshot()); err != nil {
		t.Fatal(err)
	}
	snap := dst.Snapshot()
	if snap.Counters["runs"] != 5 {
		t.Errorf("runs = %d, want 5 (counters add)", snap.Counters["runs"])
	}
	if snap.Counters["new"] != 1 {
		t.Errorf("new = %d, want 1 (missing counters created)", snap.Counters["new"])
	}
	if snap.Gauges["ratio"] != 0.75 {
		t.Errorf("ratio = %v, want 0.75 (gauges take the merged value)", snap.Gauges["ratio"])
	}
	hs := snap.Histograms["lat"]
	if hs.Count != 3 || hs.Sum != 55.5 {
		t.Errorf("lat count=%d sum=%v, want 3/55.5", hs.Count, hs.Sum)
	}
	if hs.Counts[0] != 1 || hs.Counts[1] != 1 || hs.Counts[2] != 1 {
		t.Errorf("lat buckets = %v, want one observation per bucket", hs.Counts)
	}
}

func TestRegistryMergeBoundsMismatch(t *testing.T) {
	dst := NewRegistry()
	dst.Histogram("lat", []float64{1, 10}).Observe(2)
	src := NewRegistry()
	src.Histogram("lat", []float64{1, 100}).Observe(2)
	if err := dst.Merge(src.Snapshot()); err == nil {
		t.Fatal("merging histograms with different bounds must fail")
	}
}

// TestRegistryMergeUnderConcurrentPublish: the coordinator may fold
// worker snapshots into the shared registry while runs sharing it are
// still publishing into it. Merge and Publish-style writes must not
// race or lose updates.
func TestRegistryMergeUnderConcurrentPublish(t *testing.T) {
	dst := NewRegistry()
	const publishers, rounds, sources = 4, 200, 8

	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			// The same shape Stats.Publish uses: Set on counters and
			// gauges, Observe on histograms.
			c := dst.Counter("pub.allocs")
			g := dst.Gauge("pub.live")
			h := dst.Histogram("pub.lat", []float64{1, 10})
			for i := 1; i <= rounds; i++ {
				c.Set(uint64(i))
				g.Set(float64(i))
				h.Observe(float64(i % 20))
				// Interleave snapshots, as the HTTP endpoint would.
				_ = dst.Snapshot()
			}
		}(p)
	}
	mergeErr := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for s := 0; s < sources; s++ {
			src := NewRegistry()
			src.Counter("merged.runs").Add(1)
			src.Histogram("merged.v", []float64{5}).Observe(float64(s))
			if err := dst.Merge(src.Snapshot()); err != nil {
				select {
				case mergeErr <- err:
				default:
				}
				return
			}
		}
	}()
	wg.Wait()
	select {
	case err := <-mergeErr:
		t.Fatal(err)
	default:
	}

	snap := dst.Snapshot()
	if snap.Counters["merged.runs"] != sources {
		t.Errorf("merged.runs = %d, want %d (merge lost updates under concurrent publish)",
			snap.Counters["merged.runs"], sources)
	}
	if snap.Histograms["merged.v"].Count != sources {
		t.Errorf("merged.v count = %d, want %d", snap.Histograms["merged.v"].Count, sources)
	}
	if snap.Counters["pub.allocs"] != rounds {
		t.Errorf("pub.allocs = %d, want %d (publishers Set the final value)", snap.Counters["pub.allocs"], rounds)
	}
	if snap.Histograms["pub.lat"].Count != publishers*rounds {
		t.Errorf("pub.lat count = %d, want %d", snap.Histograms["pub.lat"].Count, publishers*rounds)
	}
}

// TestRegistryMergeOrderDeterminism is the property the parallel
// harness relies on: per-worker registries merged in task order yield
// the same snapshot regardless of how the work was scheduled.
func TestRegistryMergeOrderDeterminism(t *testing.T) {
	build := func(seedOrder []int) Snapshot {
		workers := make([]*Registry, len(seedOrder))
		var wg sync.WaitGroup
		for i, seed := range seedOrder {
			wg.Add(1)
			go func(i, seed int) {
				defer wg.Done()
				r := NewRegistry()
				r.Counter("ops").Add(uint64(seed) * 10)
				r.Histogram("v", []float64{5}).Observe(float64(seed))
				workers[i] = r
			}(i, seed)
		}
		wg.Wait()
		// Merge in index order, never completion order.
		dst := NewRegistry()
		for _, w := range workers {
			if err := dst.Merge(w.Snapshot()); err != nil {
				t.Fatal(err)
			}
		}
		return dst.Snapshot()
	}
	a := build([]int{1, 2, 3, 4})
	b := build([]int{1, 2, 3, 4})
	if a.Counters["ops"] != b.Counters["ops"] || a.Histograms["v"].Count != b.Histograms["v"].Count ||
		math.Float64bits(a.Histograms["v"].Sum) != math.Float64bits(b.Histograms["v"].Sum) {
		t.Fatalf("merged snapshots differ across runs: %+v vs %+v", a, b)
	}
}
