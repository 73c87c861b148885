// Command polarbench regenerates every table and figure of the paper's
// evaluation (§V) plus the security case studies and the design-choice
// ablations.
//
// Usage:
//
//	polarbench [-reps n] [-trials n] [-fuzz n] [-only table1,fig7,...]
//	           [-seed n] [-parallel n] [-format text|csv] [-metrics]
//	           [-prom dir] [-trace-json file]
//
// Experiments: table1, table2, table3, table4, fig7, security, static,
// ablation. Default runs all of them; -only rejects any other name with
// exit status 2. Figure 6's per-app overhead is measured by perfbench
// (perfbench/NOTES.md), not here. The text format is what
// EXPERIMENTS.md records; csv is plotting-ready. -metrics appends a
// deterministic JSON metrics snapshot after each experiment's output
// (machine-readable companion to the tables). -prom additionally
// writes each experiment's snapshot as an OpenMetrics text exposition
// to <dir>/<experiment>.prom — scrape-ready files a Prometheus
// file-based collector (or promtool) can consume directly.
// -trace-json records the whole suite as one Chrome-trace timeline: an
// outer span per experiment with nested spans for each workload,
// kernel, CVE case and security scenario (load it in chrome://tracing
// or Perfetto).
//
// -parallel spreads each experiment's sub-steps over N workers
// (default GOMAXPROCS). Every sub-step runs under a seed derived from
// (-seed, task ID), so the non-timing experiments (table1, table3,
// table4, security) emit byte-identical output at any parallelism;
// the timing experiments keep each workload's repetitions pinned to
// one worker so min-of-N stays valid, but wall-clock numbers naturally
// vary run to run.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"polar/internal/evalrun"
	"polar/internal/telemetry"
)

func main() {
	reps := flag.Int("reps", 5, "timing repetitions per configuration (interleaved min taken)")
	trials := flag.Int("trials", 200, "trials per security-scenario cell")
	fuzzIters := flag.Int("fuzz", 300, "fuzzing iterations per app for Table I")
	only := flag.String("only", "", "comma-separated subset of experiments")
	seed := flag.Int64("seed", 11, "experiment seed")
	parallel := flag.Int("parallel", 0, "experiment worker pool width (0 = GOMAXPROCS, 1 = serial)")
	format := flag.String("format", "text", "output format: text or csv")
	metrics := flag.Bool("metrics", false, "print a JSON metrics snapshot after each experiment")
	promDir := flag.String("prom", "", "write each experiment's OpenMetrics exposition to <dir>/<experiment>.prom")
	traceJSON := flag.String("trace-json", "", "write a Chrome trace-event timeline of the suite to this file")
	flag.Parse()
	want, err := parseOnly(*only)
	if err != nil {
		fmt.Fprintln(os.Stderr, "polarbench:", err)
		os.Exit(2)
	}
	sel := func(k string) bool { return len(want) == 0 || want[k] }
	evalrun.SetParallelism(*parallel)
	csv := *format == "csv"
	if *format != "text" && *format != "csv" {
		fmt.Fprintf(os.Stderr, "polarbench: unknown format %q\n", *format)
		os.Exit(2)
	}

	// Explicit cleanup rather than defer: os.Exit on a failed run must
	// still leave a parseable trace behind.
	cleanup := func() {}
	if *traceJSON != "" {
		var err error
		if cleanup, err = startTrace(*traceJSON); err != nil {
			fmt.Fprintln(os.Stderr, "polarbench:", err)
			os.Exit(1)
		}
	}
	if *promDir != "" {
		if err := os.MkdirAll(*promDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "polarbench:", err)
			os.Exit(1)
		}
	}
	err = run(sel, csv, emitConfig{json: *metrics, promDir: *promDir}, *reps, *trials, *fuzzIters, *seed)
	cleanup()
	if err != nil {
		fmt.Fprintln(os.Stderr, "polarbench:", err)
		os.Exit(1)
	}
}

// experiments lists every name -only accepts, in the order run
// executes them.
var experiments = []string{"table1", "table2", "table3", "table4", "fig7", "security", "static", "ablation"}

// parseOnly turns the -only value into the set of selected experiments
// (empty: run all). An unknown name is an error, so a mistyped gate
// fails instead of passing without running anything.
func parseOnly(only string) (map[string]bool, error) {
	want := map[string]bool{}
	if only == "" {
		return want, nil
	}
	for _, k := range strings.Split(only, ",") {
		k = strings.TrimSpace(k)
		if !slices.Contains(experiments, k) {
			return nil, fmt.Errorf("unknown experiment %q in -only (valid: %s)", k, strings.Join(experiments, ", "))
		}
		want[k] = true
	}
	return want, nil
}

// startTrace attaches a suite-wide tracer writing to path. The cleanup
// closes the JSON array, flushes and closes the file — in that order —
// so even an aborted suite leaves a parseable timeline.
func startTrace(path string) (func(), error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	bw := bufio.NewWriter(f)
	tr := telemetry.NewTracer(bw)
	evalrun.SetTracer(tr)
	return func() {
		evalrun.SetTracer(nil)
		if err := tr.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "polarbench: closing trace:", err)
		}
		if err := bw.Flush(); err != nil {
			fmt.Fprintln(os.Stderr, "polarbench: flushing trace:", err)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "polarbench: closing trace file:", err)
		}
	}, nil
}

// emitConfig selects the machine-readable companions each experiment
// emits: the JSON snapshot on stdout (-metrics) and/or an OpenMetrics
// exposition file per experiment (-prom dir).
type emitConfig struct {
	json    bool
	promDir string
}

// emitMetrics renders one experiment's registry snapshot in the
// requested formats (no-op when neither -metrics nor -prom is set).
func emitMetrics(cfg emitConfig, name string, fill func(*telemetry.Registry)) error {
	if cfg.json {
		out, err := evalrun.SnapshotJSON(fill)
		if err != nil {
			return err
		}
		fmt.Printf("metrics[%s]:\n%s", name, out)
	}
	if cfg.promDir != "" {
		data, err := evalrun.SnapshotOpenMetrics(fill)
		if err != nil {
			return err
		}
		path := filepath.Join(cfg.promDir, name+".prom")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

func run(sel func(string) bool, csv bool, metrics emitConfig, reps, trials, fuzzIters int, seed int64) error {
	if sel("table1") {
		sp := evalrun.Span("table1", "experiment")
		rows, err := evalrun.TableI(fuzzIters, seed)
		sp.End()
		if err != nil {
			return err
		}
		if csv {
			fmt.Print(evalrun.CSVTableI(rows))
		} else {
			fmt.Println(evalrun.RenderTableI(rows))
		}
		if err := emitMetrics(metrics, "table1", func(reg *telemetry.Registry) { evalrun.PublishTableI(rows, reg) }); err != nil {
			return err
		}
	}
	var jsRows []evalrun.JSRow
	if sel("table2") || sel("fig7") {
		var err error
		sp := evalrun.Span("fig7", "experiment")
		jsRows, err = evalrun.Figure7(reps, seed)
		sp.End()
		if err != nil {
			return err
		}
	}
	if sel("table2") {
		agg := evalrun.TableII(jsRows)
		if csv {
			fmt.Print(evalrun.CSVTableII(agg))
		} else {
			fmt.Println(evalrun.RenderTableII(agg))
		}
		if err := emitMetrics(metrics, "table2", func(reg *telemetry.Registry) { evalrun.PublishTableII(agg, reg) }); err != nil {
			return err
		}
	}
	if sel("table3") {
		sp := evalrun.Span("table3", "experiment")
		rows, err := evalrun.TableIII(seed)
		sp.End()
		if err != nil {
			return err
		}
		if csv {
			fmt.Print(evalrun.CSVTableIII(rows))
		} else {
			fmt.Println(evalrun.RenderTableIII(rows))
		}
		if err := emitMetrics(metrics, "table3", func(reg *telemetry.Registry) { evalrun.PublishTableIII(rows, reg) }); err != nil {
			return err
		}
	}
	if sel("table4") {
		sp := evalrun.Span("table4", "experiment")
		rows, err := evalrun.TableIV()
		sp.End()
		if err != nil {
			return err
		}
		if csv {
			fmt.Print(evalrun.CSVTableIV(rows))
		} else {
			fmt.Println(evalrun.RenderTableIV(rows))
		}
		if err := emitMetrics(metrics, "table4", func(reg *telemetry.Registry) { evalrun.PublishTableIV(rows, reg) }); err != nil {
			return err
		}
	}
	if sel("fig7") {
		if csv {
			fmt.Print(evalrun.CSVFigure7(jsRows))
		} else {
			fmt.Println(evalrun.RenderFigure7(jsRows))
		}
		if err := emitMetrics(metrics, "fig7", func(reg *telemetry.Registry) { evalrun.PublishFigure7(jsRows, reg) }); err != nil {
			return err
		}
	}
	if sel("security") {
		sp := evalrun.Span("security", "experiment")
		rep, err := evalrun.Security(trials, seed)
		sp.End()
		if err != nil {
			return err
		}
		if csv {
			fmt.Print(evalrun.CSVSecurity(rep))
		} else {
			fmt.Println(rep.Render())
		}
		if err := emitMetrics(metrics, "security", func(reg *telemetry.Registry) { evalrun.PublishSecurity(rep, reg) }); err != nil {
			return err
		}
	}
	if sel("static") {
		sp := evalrun.Span("static", "experiment")
		rows, err := evalrun.StaticTaint(fuzzIters, seed)
		sp.End()
		if err != nil {
			return err
		}
		if csv {
			fmt.Print(evalrun.CSVStaticTaint(rows))
		} else {
			fmt.Println(evalrun.RenderStaticTaint(rows))
		}
		if err := emitMetrics(metrics, "static", func(reg *telemetry.Registry) { evalrun.PublishStaticTaint(rows, reg) }); err != nil {
			return err
		}
	}
	if sel("ablation") {
		sp := evalrun.Span("ablation", "experiment")
		rows, err := evalrun.Ablation(reps, seed)
		sp.End()
		if err != nil {
			return err
		}
		if csv {
			fmt.Print(evalrun.CSVAblation(rows))
		} else {
			fmt.Println(evalrun.RenderAblation(rows))
		}
		if err := emitMetrics(metrics, "ablation", func(reg *telemetry.Registry) { evalrun.PublishAblation(rows, reg) }); err != nil {
			return err
		}
	}
	return nil
}
