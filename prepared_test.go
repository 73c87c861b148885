package polar

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"testing"

	"polar/internal/evalrun"
	"polar/internal/telemetry"
)

// TestPreparedConcurrentRuns drives the public compile-once API the way
// a server would: one PrepareHardened'd program, many simultaneous
// Run calls with distinct seeds. Layouts differ per run (that's the
// point of per-allocation randomization) but results must not, and —
// under -race — the shared program, class table, tuning map and
// layout-dedup pool must be free of write races. Every run attaches a
// private Telemetry (the polarun -parallel -metrics path): wiring each
// run's registry into the shared interner's chain-length histogram is
// exactly where a write/write race on the shared field would live.
func TestPreparedConcurrentRuns(t *testing.T) {
	m, err := Parse(facadeSrc)
	if err != nil {
		t.Fatal(err)
	}
	h, err := Harden(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	prep, err := PrepareHardened(h)
	if err != nil {
		t.Fatal(err)
	}
	input := []byte{7, 1, 2, 3}

	const workers = 8
	const runsPerWorker = 4
	results := make([]*Result, workers*runsPerWorker)
	tels := make([]*Telemetry, workers*runsPerWorker)
	errs := make([]error, workers*runsPerWorker)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < runsPerWorker; r++ {
				i := w*runsPerWorker + r
				tels[i] = NewTelemetry()
				results[i], errs[i] = prep.Run(WithSeed(int64(i)+1), WithInput(input), WithTelemetry(tels[i]))
			}
		}(w)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	want := results[0]
	if want.Value != 7*40 {
		t.Fatalf("hardened value = %d, want %d", want.Value, 7*40)
	}
	for i, r := range results[1:] {
		if r.Value != want.Value || !bytes.Equal(r.Output, want.Output) {
			t.Fatalf("run %d diverged: value %d vs %d", i+1, r.Value, want.Value)
		}
	}
	// The shared interner attaches the first run's chain-length
	// histogram for its lifetime; merging every per-run registry must
	// therefore recover all Intern observations, one per olr_malloc.
	merged := NewTelemetry()
	var allocs, interns uint64
	for i, tel := range tels {
		if err := merged.Registry.Merge(tel.Registry.Snapshot()); err != nil {
			t.Fatalf("merging run %d registry: %v", i, err)
		}
		allocs += results[i].Runtime.Allocs
	}
	interns = merged.Registry.Snapshot().Histograms[telemetry.MetricInternChainLen].Count
	if allocs == 0 || interns != allocs {
		t.Fatalf("intern-chain observations = %d, want one per alloc (%d)", interns, allocs)
	}
}

// TestPreparedMatchesRunHardened pins the compat contract: the one-shot
// RunHardened and an explicit Prepare+Run must agree bit-for-bit for
// the same seed.
func TestPreparedMatchesRunHardened(t *testing.T) {
	build := func() *Hardened {
		m, err := Parse(facadeSrc)
		if err != nil {
			t.Fatal(err)
		}
		h, err := Harden(m, nil)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	input := []byte{7, 1, 2, 3}
	one, err := RunHardened(build(), WithSeed(23), WithInput(input))
	if err != nil {
		t.Fatal(err)
	}
	prep, err := PrepareHardened(build())
	if err != nil {
		t.Fatal(err)
	}
	two, err := prep.Run(WithSeed(23), WithInput(input))
	if err != nil {
		t.Fatal(err)
	}
	a := fmt.Sprintf("%d %q %s %s", one.Value, one.Output, one.VM, one.Runtime)
	b := fmt.Sprintf("%d %q %s %s", two.Value, two.Output, two.VM, two.Runtime)
	if a != b {
		t.Fatalf("Prepare+Run diverged from RunHardened:\n%s\n%s", a, b)
	}
}

// TestPreparedMergedMetricsWidthIndependent runs one Prepared program
// eight times, serially and four wide, the way polarun -runs does: a
// private registry per run, merged in run order. The merged snapshots
// must be identical at both widths, and the layout-dedup counters must
// add up to one count per Intern call — every metadata-mode
// olr_malloc plus every copy given a layout, i.e. every registration —
// even though the runs share one interner.
func TestPreparedMergedMetricsWidthIndependent(t *testing.T) {
	src, err := os.ReadFile("examples/quickstart/quickstart.ir")
	if err != nil {
		t.Fatal(err)
	}
	m, err := Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	h, err := Harden(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	const runs = 8
	merged := func(width int) telemetry.Snapshot {
		t.Helper()
		prep, err := PrepareHardened(h)
		if err != nil {
			t.Fatal(err)
		}
		tels := make([]*Telemetry, runs)
		if err := evalrun.ForEach(runs, width, func(i int) error {
			tels[i] = NewTelemetry()
			_, err := prep.Run(WithSeed(evalrun.TaskSeed(7, fmt.Sprintf("run/%d", i))), WithTelemetry(tels[i]))
			return err
		}); err != nil {
			t.Fatal(err)
		}
		for i := 1; i < runs; i++ {
			if err := tels[0].Registry.Merge(tels[i].Registry.Snapshot()); err != nil {
				t.Fatal(err)
			}
		}
		return tels[0].Registry.Snapshot()
	}
	serial, wide := merged(1), merged(4)
	a, err := json.Marshal(serial)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(wide)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("merged metrics differ between widths 1 and 4:\n%s\n%s", a, b)
	}
	c := serial.Counters
	interns := c["core.meta.layouts_unique"] + c["core.meta.layouts_shared"]
	if c["core.allocs"] == 0 || interns != c["core.meta.registered"] || interns < c["core.allocs"] {
		t.Fatalf("layouts unique+shared = %d, want one per registration (%d; allocs %d)",
			interns, c["core.meta.registered"], c["core.allocs"])
	}
}
