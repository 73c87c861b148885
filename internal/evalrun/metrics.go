package evalrun

import (
	"bytes"
	"strings"

	"polar/internal/core"
	"polar/internal/exploit"
	"polar/internal/telemetry"
)

// Per-experiment metrics publishers (polarbench -metrics): each takes
// an experiment's result rows and renders them into a telemetry
// registry, so every experiment can emit a deterministic JSON snapshot
// alongside its human-readable table. Metric names are
// "<experiment>.<row>.<quantity>" with row labels sanitized to
// [a-z0-9_].

// metricName joins segments into a registry name, lowercasing and
// replacing everything outside [a-z0-9.] with '_'.
func metricName(parts ...string) string {
	clean := make([]string, len(parts))
	for i, p := range parts {
		var b strings.Builder
		for _, r := range strings.ToLower(p) {
			switch {
			case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
				b.WriteRune(r)
			default:
				b.WriteByte('_')
			}
		}
		clean[i] = b.String()
	}
	return strings.Join(clean, ".")
}

// PublishTableI renders the TaintClass inventory rows.
func PublishTableI(rows []TaintRow, reg *telemetry.Registry) {
	for _, r := range rows {
		reg.Counter(metricName("table1", r.App, "tainted_objects")).Set(uint64(r.Count))
		reg.Counter(metricName("table1", r.App, "fuzz_execs")).Set(uint64(r.FuzzExecs))
		reg.Counter(metricName("table1", r.App, "fuzz_edges")).Set(uint64(r.FuzzEdges))
	}
}

// PublishFigure7 renders the per-benchmark JS rows.
func PublishFigure7(rows []JSRow, reg *telemetry.Registry) {
	for _, r := range rows {
		reg.Gauge(metricName("fig7", r.Suite, r.Name, "default")).Set(r.Default)
		reg.Gauge(metricName("fig7", r.Suite, r.Name, "polar")).Set(r.Polar)
		reg.Gauge(metricName("fig7", r.Suite, r.Name, "diff_pct")).Set(r.DiffPct())
	}
}

// PublishTableII renders the aggregated suite rows.
func PublishTableII(rows []SuiteRow, reg *telemetry.Registry) {
	for _, r := range rows {
		reg.Gauge(metricName("table2", r.Suite, "ratio_pct")).Set(r.RatioPct)
	}
}

// PublishTableIII renders the runtime counter rows.
func PublishTableIII(rows []CounterRow, reg *telemetry.Registry) {
	for _, r := range rows {
		reg.Counter(metricName("table3", r.App, "allocs")).Set(r.Allocs)
		reg.Counter(metricName("table3", r.App, "frees")).Set(r.Frees)
		reg.Counter(metricName("table3", r.App, "memcpys")).Set(r.Memcpys)
		reg.Counter(metricName("table3", r.App, "member_access")).Set(r.MemberAccess)
		reg.Counter(metricName("table3", r.App, "cache_hits")).Set(r.CacheHits)
		reg.Gauge(metricName("table3", r.App, "cache_hit_rate")).Set(r.CacheHitRate())
	}
}

// PublishTableIV renders the CVE discovery rows.
func PublishTableIV(rows []CVERow, reg *telemetry.Registry) {
	for _, r := range rows {
		match := uint64(0)
		if r.Match {
			match = 1
		}
		reg.Counter(metricName("table4", r.CVE, "discovered")).Set(uint64(len(r.Discovered)))
		reg.Counter(metricName("table4", r.CVE, "match")).Set(match)
	}
}

// PublishSecurity renders the attack matrix, including the per-kind
// violation breakdown from the structured records.
func PublishSecurity(rep *SecurityReport, reg *telemetry.Registry) {
	cell := func(r exploit.Result) {
		p := []string{"security", r.Scenario, r.Defense.String()}
		reg.Counter(metricName(append(p, "trials")...)).Set(uint64(r.Trials))
		reg.Counter(metricName(append(p, "successes")...)).Set(uint64(r.Successes))
		reg.Counter(metricName(append(p, "detections")...)).Set(uint64(r.Detections))
		reg.Counter(metricName(append(p, "distinct")...)).Set(uint64(r.Distinct))
		for _, kind := range core.AllViolationKinds() {
			if n := r.ByKind[kind]; n > 0 {
				reg.Counter(metricName(append(p, "violation", kind.String())...)).Set(uint64(n))
			}
		}
	}
	for _, r := range rep.Matrix {
		cell(r)
	}
	cell(rep.InterChunk.Overflow)
	cell(rep.InterChunk.TypeConfusion)
	for _, r := range rep.Repeats {
		reg.Gauge(metricName("security", "repeat", r.Defense.String(), "identical_rate")).Set(r.IdenticalRate())
	}
	for _, p := range rep.Persistence {
		reg.Gauge(metricName("security", "persist", p.Defense.String(), "eventual_rate")).Set(p.EventualRate())
		reg.Counter(metricName("security", "persist", p.Defense.String(), "alarms")).Set(uint64(p.DetectionsBeforeSuccess))
	}
}

// PublishAblation renders the design-ablation rows.
func PublishAblation(rows []AblationRow, reg *telemetry.Registry) {
	for _, r := range rows {
		reg.Gauge(metricName("ablation", r.Config, r.App, "overhead_pct")).Set(r.OverheadPct)
		reg.Gauge(metricName("ablation", r.Config, r.App, "cache_hit_pct")).Set(r.CacheHitPct)
		reg.Counter(metricName("ablation", r.Config, r.App, "fused_dispatches")).Set(r.FusedDispatches)
		reg.Gauge(metricName("ablation", r.Config, r.App, "ic_hit_pct")).Set(r.ICHitPct)
		reg.Counter(metricName("ablation", r.Config, r.App, "meta_probes")).Set(r.MetaProbes)
		reg.Gauge(metricName("ablation", r.Config, r.App, "meta_bytes_per_live")).Set(r.MetaBytesPerLive)
	}
}

// SnapshotOpenMetrics builds a fresh registry, lets fill populate it,
// and returns the OpenMetrics text exposition (the polarbench -prom
// per-experiment artifact).
func SnapshotOpenMetrics(fill func(*telemetry.Registry)) ([]byte, error) {
	reg := telemetry.NewRegistry()
	fill(reg)
	var buf bytes.Buffer
	if err := reg.Snapshot().WriteOpenMetrics(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// SnapshotJSON builds a fresh registry, lets fill populate it, and
// returns the deterministic JSON encoding.
func SnapshotJSON(fill func(*telemetry.Registry)) (string, error) {
	reg := telemetry.NewRegistry()
	fill(reg)
	data, err := reg.Snapshot().EncodeJSON()
	if err != nil {
		return "", err
	}
	return string(data) + "\n", nil
}
