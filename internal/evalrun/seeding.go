package evalrun

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"

	"polar/internal/analysis"
	"polar/internal/core"
	"polar/internal/instrument"
	"polar/internal/telemetry"
	"polar/internal/telemetry/exectrace"
	"polar/internal/vm"
	"polar/internal/workload"
)

// The static-seeding ablation (DESIGN.md §14): every workload is
// analyzed (polarlint -facts), instrumented, and compiled twice — once
// with the default one-fresh-IC-slot-per-site numbering, once under the
// site classification (churned sites lose their slot, runs-once
// monomorphic sites share one). Both programs run once under the same
// seed with a deterministic execution trace attached. Two properties
// are gated:
//
//   - seeding changes NO observable: the two traces are byte-identical
//     (every olr_* offset, every block entry, every call — an IC slot
//     only memoizes what the resolver would recompute);
//   - seeding pays and costs nothing: the inline-cache miss count is
//     strictly reduced on a reasonable share of the workloads, and on
//     no workload do misses rise or hits fall (fewer misses bought by
//     suppressing slots that hit is a loss, not a reduction).

// SeedingRow is one workload's seeded-vs-unseeded differential.
type SeedingRow struct {
	App string
	// Sites and the per-kind counts summarize the classification.
	Sites, Mono, Poly, Unknown int
	// Shared counts monomorphic sites carrying a share key.
	Shared int
	// Inline-cache traffic of the single measured run per arm.
	HitsUnseeded, MissesUnseeded uint64
	HitsSeeded, MissesSeeded     uint64
	// Reduced reports a strict miss-count reduction under seeding.
	Reduced bool
	// TraceIdentical reports byte equality of the two execution traces —
	// the "no observable changed" contract.
	TraceIdentical bool
}

// seedingRun executes one hardened program once with a deterministic
// execution trace attached, returning the encoded trace and the run's
// engine perf counters.
func seedingRun(ins *instrument.Result, p *vm.Program, w *workload.Workload, seed int64) ([]byte, vm.Perf, error) {
	var buf bytes.Buffer
	xw := exectrace.NewWriter(&buf)
	tel := telemetry.New()
	xw.AttachOnce(tel.Bus)
	cfg := core.DefaultConfig(seed)
	cfg.Telemetry = tel
	cfg.ExecTrace = xw
	var hv *vm.VM
	_, _, err := runOnce(p, w.Input, w.Args, func(v *vm.VM) {
		core.New(ins.Table, cfg).Attach(v)
		hv = v
	}, vm.WithTelemetry(tel), vm.WithExecTrace(xw))
	if err != nil {
		return nil, vm.Perf{}, err
	}
	if err := xw.Close(); err != nil {
		return nil, vm.Perf{}, err
	}
	return buf.Bytes(), hv.Perf, nil
}

// Seeding runs the seeded-vs-unseeded differential over every workload.
// Deterministic at any parallelism: each workload's seed derives from
// (seed, app name) and rows come back in catalog order.
func Seeding(seed int64) ([]SeedingRow, error) {
	ws := workload.All()
	rows := make([]SeedingRow, len(ws))
	err := forEach(len(ws), func(i int) error {
		w := ws[i]
		sp := Span(w.Name, "seeding")
		defer sp.End()
		tseed := TaskSeed(seed, "seeding/"+w.Name)

		// Classify before instrumenting: the rewrite is in place, so the
		// "@fn.block#idx" positions stay valid for the compiled sites.
		res := analysis.Analyze(w.Module, analysis.Options{SiteFacts: true})
		ins, err := instrument.Apply(w.Module, nil)
		if err != nil {
			return fmt.Errorf("%s: instrument: %w", w.Name, err)
		}
		unseeded, err := vm.Compile(ins.Module)
		if err != nil {
			return fmt.Errorf("%s: compile: %w", w.Name, err)
		}
		seeded, err := vm.CompileWith(ins.Module, vm.CompileOpts{Facts: res.Sites.CompileFacts()})
		if err != nil {
			return fmt.Errorf("%s: seeded compile: %w", w.Name, err)
		}

		traceU, perfU, err := seedingRun(ins, unseeded, w, tseed)
		if err != nil {
			return fmt.Errorf("%s: unseeded run: %w", w.Name, err)
		}
		traceS, perfS, err := seedingRun(ins, seeded, w, tseed)
		if err != nil {
			return fmt.Errorf("%s: seeded run: %w", w.Name, err)
		}

		byKind := res.Sites.ByKind()
		row := SeedingRow{
			App:     w.Name,
			Sites:   len(res.Sites.Sites),
			Mono:    byKind[analysis.SiteMonomorphic],
			Poly:    byKind[analysis.SitePolymorphic],
			Unknown: byKind[analysis.SiteUnknown],

			HitsUnseeded: perfU.InlineHits, MissesUnseeded: perfU.InlineMisses,
			HitsSeeded: perfS.InlineHits, MissesSeeded: perfS.InlineMisses,
			Reduced:        perfS.InlineMisses < perfU.InlineMisses,
			TraceIdentical: bytes.Equal(traceU, traceS),
		}
		for _, s := range res.Sites.Sites {
			if s.ShareKey != "" {
				row.Shared++
			}
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// SeedingViolations checks the experiment's two gates and returns one
// message per violation (empty = pass): every trace pair byte-identical,
// no workload's miss count increased or hit count decreased, and at
// least minReduced workloads strictly reduced misses.
func SeedingViolations(rows []SeedingRow, minReduced int) []string {
	var out []string
	reduced := 0
	for _, r := range rows {
		if !r.TraceIdentical {
			out = append(out, fmt.Sprintf("%s: seeded and unseeded execution traces differ", r.App))
		}
		if r.MissesSeeded > r.MissesUnseeded {
			out = append(out, fmt.Sprintf("%s: seeding increased IC misses (%d -> %d)", r.App, r.MissesUnseeded, r.MissesSeeded))
		}
		if r.HitsSeeded < r.HitsUnseeded {
			out = append(out, fmt.Sprintf("%s: seeding lost IC hits (%d -> %d)", r.App, r.HitsUnseeded, r.HitsSeeded))
		}
		if r.Reduced {
			reduced++
		}
	}
	if reduced < minReduced {
		out = append(out, fmt.Sprintf("only %d/%d workloads reduced IC misses under seeding (want >= %d)", reduced, len(rows), minReduced))
	}
	return out
}

// RenderSeeding renders the differential table.
func RenderSeeding(rows []SeedingRow) string {
	var b strings.Builder
	b.WriteString("Static IC seeding — seeded vs unseeded compile (DESIGN.md §14)\n")
	fmt.Fprintf(&b, "%-18s %6s %5s %5s %4s %6s %14s %14s %8s %s\n",
		"app", "sites", "mono", "poly", "unk", "shared", "miss(unseeded)", "miss(seeded)", "reduced", "trace")
	identical := 0
	for _, r := range rows {
		verdict := "identical"
		if !r.TraceIdentical {
			verdict = "DIVERGED"
		} else {
			identical++
		}
		fmt.Fprintf(&b, "%-18s %6d %5d %5d %4d %6d %14d %14d %8t %s\n",
			r.App, r.Sites, r.Mono, r.Poly, r.Unknown, r.Shared,
			r.MissesUnseeded, r.MissesSeeded, r.Reduced, verdict)
	}
	fmt.Fprintf(&b, "%d/%d seeded traces byte-identical to unseeded\n", identical, len(rows))
	return b.String()
}

// CSVSeeding exports the rows.
func CSVSeeding(rows []SeedingRow) string {
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		out = append(out, []string{
			r.App, strconv.Itoa(r.Sites), strconv.Itoa(r.Mono), strconv.Itoa(r.Poly),
			strconv.Itoa(r.Unknown), strconv.Itoa(r.Shared),
			strconv.FormatUint(r.HitsUnseeded, 10), strconv.FormatUint(r.MissesUnseeded, 10),
			strconv.FormatUint(r.HitsSeeded, 10), strconv.FormatUint(r.MissesSeeded, 10),
			strconv.FormatBool(r.Reduced), strconv.FormatBool(r.TraceIdentical),
		})
	}
	return writeCSV([]string{
		"app", "sites", "mono", "poly", "unknown", "shared",
		"hits_unseeded", "misses_unseeded", "hits_seeded", "misses_seeded",
		"reduced", "trace_identical",
	}, out)
}

// PublishSeeding folds the rows into a metrics registry.
func PublishSeeding(rows []SeedingRow, reg *telemetry.Registry) {
	for _, r := range rows {
		reg.Counter(metricName("seeding", r.App, "misses_unseeded")).Set(r.MissesUnseeded)
		reg.Counter(metricName("seeding", r.App, "misses_seeded")).Set(r.MissesSeeded)
		g := reg.Gauge(metricName("seeding", r.App, "trace_identical"))
		if r.TraceIdentical {
			g.Set(1)
		}
	}
}

// seededHitPct measures one seeded hardened run's IC hit rate for the
// ablation grid's last column: the same analyze→seed→compile pipeline,
// one run under cfg (with cfg.Seed set to seed).
func seededHitPct(app string, cfg core.Config, seed int64) (float64, error) {
	w, err := workload.ByName(app)
	if err != nil {
		return 0, err
	}
	res := analysis.Analyze(w.Module, analysis.Options{SiteFacts: true})
	ins, err := instrument.Apply(w.Module, nil)
	if err != nil {
		return 0, fmt.Errorf("%s: instrument: %w", app, err)
	}
	p, err := vm.CompileWith(ins.Module, vm.CompileOpts{Facts: res.Sites.CompileFacts()})
	if err != nil {
		return 0, fmt.Errorf("%s: seeded compile: %w", app, err)
	}
	cfg.Seed = seed
	var hv *vm.VM
	if _, _, err := runOnce(p, w.Input, w.Args, func(v *vm.VM) {
		core.New(ins.Table, cfg).Attach(v)
		hv = v
	}); err != nil {
		return 0, fmt.Errorf("%s: seeded run: %w", app, err)
	}
	return 100 * hv.Perf.HitRate(), nil
}
