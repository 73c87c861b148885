package evalrun

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"polar/internal/analysis"
	"polar/internal/fuzz"
	"polar/internal/taint"
	"polar/internal/telemetry"
	"polar/internal/workload"
)

// StaticTaintRow cross-validates the static TaintClass pass against
// the dynamic campaign on one application: class-level precision and
// recall of the static verdict, with both analyses' wall time. The
// static pass is a sound over-approximation of the dynamic semantics,
// so Recall must be 1.0 on every app; Precision measures how much the
// approximation over-reports.
type StaticTaintRow struct {
	App     string
	Dynamic int // classes the dynamic campaign marks
	Static  int // classes the static pass marks
	Both    int // agreement (true positives)
	// Missed lists dynamic-only classes (recall violations).
	Missed []string
	// Extra lists static-only classes (precision cost).
	Extra       []string
	DynamicSecs float64 // fuzz + taint campaign
	StaticSecs  float64 // whole-module static analysis
}

// Recall is Both/Dynamic (1 when the dynamic set is empty).
func (r StaticTaintRow) Recall() float64 {
	if r.Dynamic == 0 {
		return 1
	}
	return float64(r.Both) / float64(r.Dynamic)
}

// Precision is Both/Static (1 when the static set is empty).
func (r StaticTaintRow) Precision() float64 {
	if r.Static == 0 {
		return 1
	}
	return float64(r.Both) / float64(r.Static)
}

// StaticTaint runs both analyses over every application workload.
// fuzzIters bounds the dynamic campaign exactly as TableI does (0 =
// canonical input only).
func StaticTaint(fuzzIters int, seed int64) ([]StaticTaintRow, error) {
	ws := workload.All()
	rows := make([]StaticTaintRow, len(ws))
	err := forEach(len(ws), func(i int) error {
		w := ws[i]
		sp := Span(w.Name, "static_taint")
		defer sp.End()
		tseed := TaskSeed(seed, "static/"+w.Name)

		dynStart := time.Now()
		corpus := [][]byte{w.Input}
		if fuzzIters > 0 {
			fr, err := fuzz.Run(w.Module, corpus, fuzz.Config{
				Iterations: fuzzIters, MaxInputLen: 4096, Seed: tseed, Fuel: 30_000_000, Args: w.Args,
			})
			if err != nil {
				return fmt.Errorf("%s: fuzz: %w", w.Name, err)
			}
			corpus = fuzz.TaintInputs(corpus, fr.Corpus, fr.Crashers)
		}
		rep, err := taint.Analyze(w.Module, corpus, taint.RunOptions{
			IgnoreRunErrors: true, Fuel: 60_000_000, Args: w.Args,
		})
		if err != nil {
			return fmt.Errorf("%s: taint: %w", w.Name, err)
		}
		dynSecs := time.Since(dynStart).Seconds()
		dynamic := rep.TaintedClasses()

		staticStart := time.Now()
		res := analysis.Analyze(w.Module, analysis.Options{Taint: true})
		staticSecs := time.Since(staticStart).Seconds()
		static := res.Taint.TaintedClasses()

		dynSet := make(map[string]bool, len(dynamic))
		for _, c := range dynamic {
			dynSet[c] = true
		}
		statSet := make(map[string]bool, len(static))
		for _, c := range static {
			statSet[c] = true
		}
		row := StaticTaintRow{
			App: w.Name, Dynamic: len(dynamic), Static: len(static),
			DynamicSecs: dynSecs, StaticSecs: staticSecs,
		}
		for _, c := range dynamic {
			if statSet[c] {
				row.Both++
			} else {
				row.Missed = append(row.Missed, c)
			}
		}
		for _, c := range static {
			if !dynSet[c] {
				row.Extra = append(row.Extra, c)
			}
		}
		sort.Strings(row.Missed)
		sort.Strings(row.Extra)
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// RenderStaticTaint renders the cross-validation table.
func RenderStaticTaint(rows []StaticTaintRow) string {
	var b strings.Builder
	b.WriteString("Static vs dynamic TaintClass (class-level)\n")
	b.WriteString(fmt.Sprintf("%-22s %5s %6s %6s %7s %9s %10s %10s  %s\n",
		"app", "dyn", "static", "recall", "prec", "dyn_s", "static_s", "speedup", "divergence"))
	for _, r := range rows {
		div := "-"
		if len(r.Missed) > 0 {
			div = "missed: " + strings.Join(r.Missed, ",")
		} else if len(r.Extra) > 0 {
			div = "extra: " + strings.Join(r.Extra, ",")
		}
		speedup := "-"
		if r.StaticSecs > 0 {
			speedup = fmt.Sprintf("%.0fx", r.DynamicSecs/r.StaticSecs)
		}
		b.WriteString(fmt.Sprintf("%-22s %5d %6d %6.2f %7.2f %9.3f %10.4f %10s  %s\n",
			r.App, r.Dynamic, r.Static, r.Recall(), r.Precision(),
			r.DynamicSecs, r.StaticSecs, speedup, div))
	}
	return b.String()
}

// CSVStaticTaint exports the cross-validation rows.
func CSVStaticTaint(rows []StaticTaintRow) string {
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		out = append(out, []string{
			r.App, strconv.Itoa(r.Dynamic), strconv.Itoa(r.Static),
			f2(r.Recall()), f2(r.Precision()),
			fmt.Sprintf("%.4f", r.DynamicSecs), fmt.Sprintf("%.6f", r.StaticSecs),
			strings.Join(r.Missed, ";"), strings.Join(r.Extra, ";"),
		})
	}
	return writeCSV([]string{
		"app", "dynamic", "static", "recall", "precision",
		"dynamic_secs", "static_secs", "missed", "extra",
	}, out)
}

// PublishStaticTaint renders the rows into a metrics registry.
func PublishStaticTaint(rows []StaticTaintRow, reg *telemetry.Registry) {
	for _, r := range rows {
		reg.Counter(metricName("static", r.App, "dynamic_classes")).Set(uint64(r.Dynamic))
		reg.Counter(metricName("static", r.App, "static_classes")).Set(uint64(r.Static))
		reg.Gauge(metricName("static", r.App, "recall")).Set(r.Recall())
		reg.Gauge(metricName("static", r.App, "precision")).Set(r.Precision())
		reg.Gauge(metricName("static", r.App, "dynamic_secs")).Set(r.DynamicSecs)
		reg.Gauge(metricName("static", r.App, "static_secs")).Set(r.StaticSecs)
	}
}
