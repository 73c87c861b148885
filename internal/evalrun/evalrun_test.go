package evalrun

import (
	"strings"
	"testing"

	"polar/internal/workload"
)

// The harness tests verify structure and invariants of every
// experiment, not absolute timings (reps=1 keeps them fast; the real
// measurement methodology is exercised by cmd/polarbench).

func TestTableIStructure(t *testing.T) {
	rows, err := TableI(0, 1) // no fuzzing: canonical inputs only
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(workload.All()) {
		t.Fatalf("rows = %d, want %d", len(rows), len(workload.All()))
	}
	byApp := map[string]TaintRow{}
	for _, r := range rows {
		byApp[r.App] = r
	}
	if byApp["462.libquantum"].Count != 0 {
		t.Errorf("libquantum tainted count = %d, want 0 (the paper's negative result)", byApp["462.libquantum"].Count)
	}
	if byApp["483.xalancbmk"].Count != 59 {
		t.Errorf("xalancbmk tainted count = %d, want 59", byApp["483.xalancbmk"].Count)
	}
	if byApp["chakracore-1.10"].Count != 42 {
		t.Errorf("chakracore tainted count = %d, want 42", byApp["chakracore-1.10"].Count)
	}
	out := RenderTableI(rows)
	if !strings.Contains(out, "400.perlbench") || !strings.Contains(out, "samples") {
		t.Error("render missing expected content")
	}
}

func TestTableIIIStructure(t *testing.T) {
	rows, err := TableIII(5)
	if err != nil {
		t.Fatal(err)
	}
	byApp := map[string]CounterRow{}
	for _, r := range rows {
		byApp[r.App] = r
	}
	// The profile shape of the paper's Table III:
	if byApp["458.sjeng"].Allocs < 1000 || byApp["458.sjeng"].Memcpys == 0 {
		t.Errorf("sjeng profile wrong: %+v", byApp["458.sjeng"])
	}
	if byApp["429.mcf"].Allocs > 10 || byApp["429.mcf"].MemberAccess < 1000 {
		t.Errorf("mcf profile wrong: %+v", byApp["429.mcf"])
	}
	if r := byApp["429.mcf"]; r.CacheHitRate() < 0.99 {
		t.Errorf("mcf cache-hit rate = %f, want ~1.0", r.CacheHitRate())
	}
	if byApp["403.gcc"].Frees < 1000 {
		t.Errorf("gcc profile wrong: %+v", byApp["403.gcc"])
	}
	if byApp["464.h264ref"].Memcpys < 1000 {
		t.Errorf("h264ref profile wrong: %+v", byApp["464.h264ref"])
	}
	if out := RenderTableIII(rows); !strings.Contains(out, "cache-hit") {
		t.Error("render missing header")
	}
}

func TestTableIVAllCVEsDiscovered(t *testing.T) {
	rows, err := TableIV()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("CVE rows = %d, want 6", len(rows))
	}
	for _, r := range rows {
		if !r.Match {
			t.Errorf("CVE-%s: expected objects %v not all discovered in %v",
				r.CVE, r.Expected, r.Discovered)
		}
	}
	if out := RenderTableIV(rows); !strings.Contains(out, "2015-8126") {
		t.Error("render missing CVE id")
	}
}

func TestTableIIAggregation(t *testing.T) {
	rows := []JSRow{
		{Suite: "Sunspider", Name: "a", Default: 10, Polar: 11},
		{Suite: "Sunspider", Name: "b", Default: 20, Polar: 20},
		{Suite: "Octane", Name: "c", Default: 100, Polar: 90, ScoreBased: true},
		{Suite: "Octane", Name: "d", Default: 300, Polar: 310, ScoreBased: true},
	}
	agg := TableII(rows)
	if len(agg) != 2 {
		t.Fatalf("suites = %d", len(agg))
	}
	var sun, oct SuiteRow
	for _, r := range agg {
		switch r.Suite {
		case "Sunspider":
			sun = r
		case "Octane":
			oct = r
		}
	}
	if sun.Default != 30 || sun.Polar != 31 {
		t.Errorf("sunspider totals = %+v", sun)
	}
	wantRatio := 100.0 * 1 / 30
	if diff := sun.RatioPct - wantRatio; diff > 0.01 || diff < -0.01 {
		t.Errorf("sunspider ratio = %f, want %f", sun.RatioPct, wantRatio)
	}
	if oct.Default != 200 || oct.Polar != 200 {
		t.Errorf("octane means = %+v", oct)
	}
	// Score-based diff direction: higher polar score = negative ratio.
	rows2 := []JSRow{{Suite: "Octane", Name: "x", Default: 100, Polar: 110, ScoreBased: true}}
	if agg2 := TableII(rows2); agg2[0].RatioPct >= 0 {
		t.Errorf("score improvement should be negative ratio, got %f", agg2[0].RatioPct)
	}
}

func TestJSRowDiffDirection(t *testing.T) {
	timeRow := JSRow{Default: 100, Polar: 105}
	if d := timeRow.DiffPct(); d < 4.9 || d > 5.1 {
		t.Errorf("time diff = %f", d)
	}
	scoreRow := JSRow{Default: 100, Polar: 95, ScoreBased: true}
	if d := scoreRow.DiffPct(); d < 4.9 || d > 5.1 {
		t.Errorf("score diff = %f", d)
	}
}

func TestSecurityReportStructure(t *testing.T) {
	rep, err := Security(40, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Matrix) != 24 { // 6 scenarios × 4 defenses
		t.Fatalf("matrix cells = %d, want 24", len(rep.Matrix))
	}
	if len(rep.Repeats) != 4 {
		t.Fatalf("repeat rows = %d, want 4", len(rep.Repeats))
	}
	out := rep.Render()
	for _, want := range []string{"use-after-free", "type-confusion", "heap-overflow", "olr-public", "identical"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestAblationStructure(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	rows, err := Ablation(1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7*3 {
		t.Fatalf("rows = %d, want 21", len(rows))
	}
	out := RenderAblation(rows)
	for _, cfg := range []string{"no-cache", "stateless"} {
		if !strings.Contains(out, cfg) {
			t.Errorf("render missing config name %q", cfg)
		}
	}
	// The stateless arm's defining numbers: zero metadata probes, zero
	// metadata bytes per live object; metadata arms probe the table.
	for _, r := range rows {
		if r.Config == "stateless" {
			if r.MetaProbes != 0 || r.MetaBytesPerLive != 0 {
				t.Errorf("stateless/%s: probes=%d bytes/obj=%v, want 0/0", r.App, r.MetaProbes, r.MetaBytesPerLive)
			}
		}
		if r.Config == "default" && r.MetaProbes == 0 {
			t.Errorf("default/%s: MetaProbes = 0, want metadata-table lookups", r.App)
		}
	}
}
