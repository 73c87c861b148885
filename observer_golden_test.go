package polar

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"polar/internal/ir"
	"polar/internal/telemetry"
	"polar/internal/telemetry/health"
)

// observerModules is every module the trace-digest golden runs plus the
// quickstart example.
func observerModules(t *testing.T) []digestModule {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("examples", "quickstart", "quickstart.ir"))
	if err != nil {
		t.Fatal(err)
	}
	qs, err := Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	return append(digestModules(), digestModule{name: "quickstart", mod: qs})
}

// renderObserverReports runs every observer module, with every class
// hardened, at seed 42 under the warn policy in both layout modes, with
// a metrics registry, a hot-site profiler and a health monitor attached.
// Each line carries the event counters and the probe-length buckets in
// clear, plus the SHA-256 of the registry snapshot, the profiler report
// and the health report.
func renderObserverReports(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	for _, dm := range observerModules(t) {
		for _, mode := range []LayoutMode{LayoutModeMetadata, LayoutModeStateless} {
			h, err := Harden(ir.Clone(dm.mod), nil)
			if err != nil {
				t.Fatalf("%s: harden: %v", dm.name, err)
			}
			tel := NewTelemetry()
			prof := NewSiteProfiler()
			hm := health.NewMonitor(nil)
			hm.AttachOnce(tel.Bus)
			if _, err := RunHardened(h, WithSeed(42), WithWarnPolicy(), WithLayoutMode(mode),
				WithTelemetry(tel), WithProfiler(prof), WithInput(dm.input), WithArgs(dm.args...)); err != nil {
				t.Fatalf("%s %s: run: %v", dm.name, mode, err)
			}
			snap := tel.Registry.Snapshot()
			var events []string
			for name, v := range snap.Counters {
				if strings.HasPrefix(name, "event.") {
					events = append(events, fmt.Sprintf("%s=%d", name, v))
				}
			}
			sort.Strings(events)
			reg, err := snap.EncodeJSON()
			if err != nil {
				t.Fatal(err)
			}
			rep, err := json.Marshal(hm.Report())
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "%s %s %s probe=%v registry=%x profile=%x health=%x\n", dm.name, mode,
				strings.Join(events, " "), snap.Histograms[telemetry.MetricCacheProbeLen].Counts,
				sha256.Sum256(reg), sha256.Sum256([]byte(prof.Report(0))), sha256.Sum256(rep))
		}
	}
	return b.String()
}

// TestObserverGolden pins what every observer reports for every
// workload, case study and the quickstart in both layout modes: the bus
// counters, the probe-length histogram, the whole registry snapshot,
// the hot-site profile and the health verdict. A change to where an
// observer gets its events must leave every line as it is. Regenerate
// only for an intended change, with:
// go test -run TestObserverGolden -update .
func TestObserverGolden(t *testing.T) {
	got := renderObserverReports(t)
	golden := filepath.Join("testdata", "observer.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if string(want) == got {
		return
	}
	wl, gl := strings.Split(string(want), "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			t.Errorf("line %d differs from %s:\nwant: %s\ngot:  %s", i+1, golden, wl[i], gl[i])
		}
	}
	if len(wl) != len(gl) {
		t.Errorf("%d lines, want %d", len(gl), len(wl))
	}
	t.Fatal("observer reports drifted; regenerate with -update only for an intended change")
}
