package evalrun

import (
	"encoding/csv"
	"fmt"
	"strconv"
	"strings"
)

// CSV renderers: machine-readable exports of every experiment, for
// plotting the figures outside the harness (polarbench -format csv).

func writeCSV(header []string, rows [][]string) string {
	var b strings.Builder
	w := csv.NewWriter(&b)
	// csv.Writer on strings.Builder cannot fail for valid UTF-8 fields;
	// Flush captures any error anyway.
	_ = w.Write(header)
	for _, r := range rows {
		_ = w.Write(r)
	}
	w.Flush()
	return b.String()
}

func f2(v float64) string { return strconv.FormatFloat(v, 'f', 3, 64) }

// CSVTableI exports the tainted-object table.
func CSVTableI(rows []TaintRow) string {
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		out = append(out, []string{
			r.App, strconv.Itoa(r.Count), strconv.Itoa(r.PaperCount),
			strconv.Itoa(r.FuzzExecs), strconv.Itoa(r.FuzzEdges),
			strings.Join(r.Samples, ";"),
		})
	}
	return writeCSV([]string{"app", "tainted", "paper", "fuzz_execs", "fuzz_edges", "samples"}, out)
}

// CSVFigure7 exports the per-kernel JS series.
func CSVFigure7(rows []JSRow) string {
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		kind := "time_ms"
		if r.ScoreBased {
			kind = "score"
		}
		out = append(out, []string{
			r.Suite, r.Name, kind, f2(r.Default), f2(r.Polar), f2(r.DiffPct()),
		})
	}
	return writeCSV([]string{"suite", "benchmark", "metric", "default", "polar", "diff_pct"}, out)
}

// CSVTableII exports the suite aggregation.
func CSVTableII(rows []SuiteRow) string {
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		kind := "time_ms"
		if r.ScoreBased {
			kind = "score"
		}
		out = append(out, []string{
			r.Suite, kind, f2(r.Default), f2(r.Polar), f2(r.Diff), f2(r.RatioPct), f2(r.PaperPct),
		})
	}
	return writeCSV([]string{"suite", "metric", "default", "polar", "diff", "ratio_pct", "paper_pct"}, out)
}

// CSVTableIII exports the runtime counters.
func CSVTableIII(rows []CounterRow) string {
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		out = append(out, []string{
			r.App,
			strconv.FormatUint(r.Allocs, 10), strconv.FormatUint(r.Frees, 10),
			strconv.FormatUint(r.Memcpys, 10), strconv.FormatUint(r.MemberAccess, 10),
			strconv.FormatUint(r.CacheHits, 10), f2(100 * r.CacheHitRate()),
		})
	}
	return writeCSV([]string{"app", "alloc", "free", "memcpy", "member_access", "cache_hit", "hit_pct"}, out)
}

// CSVTableIV exports the CVE discovery results.
func CSVTableIV(rows []CVERow) string {
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		out = append(out, []string{
			r.CVE, r.Description, fmt.Sprintf("%v", r.Match),
			strings.Join(r.Discovered, ";"), strings.Join(r.Expected, ";"),
		})
	}
	return writeCSV([]string{"cve", "description", "all_found", "discovered", "expected"}, out)
}

// CSVSecurity exports the attack matrix and replay experiment.
func CSVSecurity(rep *SecurityReport) string {
	out := make([][]string, 0, len(rep.Matrix)+len(rep.Repeats))
	for _, r := range rep.Matrix {
		out = append(out, []string{
			r.Scenario, r.Defense.String(), strconv.Itoa(r.Trials),
			f2(100 * r.SuccessRate()), f2(100 * r.DetectionRate()),
			strconv.Itoa(r.Crashes), strconv.Itoa(r.Distinct),
		})
	}
	for _, r := range rep.Repeats {
		out = append(out, []string{
			"replay-determinism", r.Defense.String(), strconv.Itoa(r.Pairs),
			f2(100 * r.IdenticalRate()), "", "", "",
		})
	}
	return writeCSV([]string{"scenario", "defense", "trials", "success_pct", "detected_pct", "crashes", "distinct"}, out)
}

// CSVAblation exports the ablation grid.
func CSVAblation(rows []AblationRow) string {
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		// New columns go at the end: the CI gates address the stateless
		// arm's metadata fields positionally ($5/$6).
		out = append(out, []string{
			r.Config, r.App, f2(r.OverheadPct), f2(r.CacheHitPct),
			strconv.FormatUint(r.MetaProbes, 10), f2(r.MetaBytesPerLive),
			strconv.FormatUint(r.FusedDispatches, 10), f2(r.ICHitPct),
		})
	}
	return writeCSV([]string{"config", "app", "overhead_pct", "cache_hit_pct", "meta_probes", "meta_bytes_per_live", "fused_dispatches", "ic_hit_pct"}, out)
}
