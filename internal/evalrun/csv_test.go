package evalrun

import (
	"encoding/csv"
	"strings"
	"testing"

	"polar/internal/exploit"
)

func parseCSV(t *testing.T, s string) [][]string {
	t.Helper()
	r := csv.NewReader(strings.NewReader(s))
	rows, err := r.ReadAll()
	if err != nil {
		t.Fatalf("invalid CSV: %v\n%s", err, s)
	}
	return rows
}

func TestCSVTableII(t *testing.T) {
	rows := []SuiteRow{{Suite: "Octane", Default: 100, Polar: 99, Diff: -1, RatioPct: 1, ScoreBased: true, PaperPct: -1.1}}
	out := parseCSV(t, CSVTableII(rows))
	if out[1][1] != "score" {
		t.Errorf("metric cell = %q", out[1][1])
	}
}

func TestCSVTableIWithCommaSafety(t *testing.T) {
	rows := []TaintRow{{App: "a,pp", Count: 2, PaperCount: 2, Samples: []string{"x", "y"}}}
	out := parseCSV(t, CSVTableI(rows))
	if out[1][0] != "a,pp" {
		t.Errorf("comma-containing field mangled: %q", out[1][0])
	}
	if out[1][5] != "x;y" {
		t.Errorf("samples = %q", out[1][5])
	}
}

func TestCSVTableIIIAndIV(t *testing.T) {
	iii := parseCSV(t, CSVTableIII([]CounterRow{{App: "429.mcf", Allocs: 3, MemberAccess: 100, CacheHits: 100}}))
	if iii[1][6] != "100.000" {
		t.Errorf("hit pct = %q", iii[1][6])
	}
	iv := parseCSV(t, CSVTableIV([]CVERow{{CVE: "2015-8126", Description: "d", Match: true, Discovered: []string{"a"}, Expected: []string{"a"}}}))
	if iv[1][2] != "true" {
		t.Errorf("match cell = %q", iv[1][2])
	}
}

func TestCSVSecurityIncludesReplayRows(t *testing.T) {
	rep := &SecurityReport{
		Matrix: []exploit.Result{{
			Scenario: "use-after-free", Defense: exploit.DefensePOLaR,
			Trials: 10, Successes: 1, Detections: 10, Distinct: 4,
		}},
		Repeats: []exploit.RepeatResult{{Defense: exploit.DefenseOLRHidden, Pairs: 10, Identical: 10}},
	}
	out := parseCSV(t, CSVSecurity(rep))
	if len(out) != 3 {
		t.Fatalf("rows = %d", len(out))
	}
	if out[2][0] != "replay-determinism" || out[2][3] != "100.000" {
		t.Errorf("replay row = %v", out[2])
	}
}

func TestCSVFigure7AndAblation(t *testing.T) {
	f7 := parseCSV(t, CSVFigure7([]JSRow{{Suite: "Kraken", Name: "audio-dft", Default: 10, Polar: 10.5}}))
	if f7[1][2] != "time_ms" || f7[1][5] != "5.000" {
		t.Errorf("fig7 row = %v", f7[1])
	}
	ab := parseCSV(t, CSVAblation([]AblationRow{{
		Config: "no-cache", App: "429.mcf", OverheadPct: 1.5,
		MetaProbes: 42, MetaBytesPerLive: 64,
		FusedDispatches: 7, ICHitPct: 99.5,
	}}))
	if ab[1][0] != "no-cache" {
		t.Errorf("ablation row = %v", ab[1])
	}
	// The metadata columns stay at $5/$6 — the CI stateless gate
	// addresses them positionally — and the engine columns append
	// strictly at the end.
	if len(ab[0]) != 8 || ab[0][4] != "meta_probes" || ab[1][4] != "42" || ab[1][5] != "64.000" {
		t.Errorf("ablation metadata columns = %v / %v", ab[0], ab[1])
	}
	if ab[0][6] != "fused_dispatches" || ab[1][6] != "7" || ab[0][7] != "ic_hit_pct" || ab[1][7] != "99.500" {
		t.Errorf("ablation engine columns = %v / %v", ab[0], ab[1])
	}
}
