// Package evalrun is the experiment harness: it regenerates every table
// and figure of the paper's evaluation (§V) from the workloads, the
// instrumentation pass, the POLaR runtime and the TaintClass framework,
// and renders them as text reports.
//
// Experiment index (see DESIGN.md §3):
//
//	TableI    – tainted-object lists per application
//	TableII   – ChakraCore-suite aggregate overheads
//	TableIII  – per-app alloc/free/memcpy/member-access/cache-hit counts
//	TableIV   – per-CVE exploit-object discovery (mini-libpng)
//	Figure7   – per-benchmark Default vs POLaR series for the JS suites
//	Security  – §III/§V.C attack-outcome matrix
//	Ablation  – design-choice ablations (cache, dedup, copy re-rand, dummies)
package evalrun

import (
	"fmt"
	"time"

	"polar/internal/core"
	"polar/internal/instrument"
	"polar/internal/ir"
	"polar/internal/telemetry"
	"polar/internal/vm"
	"polar/internal/workload"
)

// tracer, when set, receives one span per experiment sub-step (each
// workload, kernel, CVE case and security scenario) so a whole
// polarbench suite renders as one nested Chrome-trace timeline.
var tracer *telemetry.Tracer

// SetTracer attaches (or, with nil, detaches) the harness-wide tracer.
// Call this before running experiments (the tracer itself serializes
// concurrent spans, so parallel sub-steps trace safely).
func SetTracer(tr *telemetry.Tracer) { tracer = tr }

// Span opens a span on the harness tracer; without one it returns nil,
// which Span.End handles, so call sites need no guards. polarbench uses
// the same helper for the outer per-experiment spans.
func Span(name, cat string) *telemetry.Span {
	if tracer == nil {
		return nil
	}
	return tracer.Begin(name, cat)
}

// runOnce stamps a fresh instance from a compiled program, executes it
// once, and returns the wall time of the Run call and the final
// checksum. Extra vm options (a telemetry layer and trace writer, say)
// apply to the instance.
func runOnce(p *vm.Program, input []byte, args []int64, rt func(*vm.VM), vmOpts ...vm.Option) (time.Duration, int64, error) {
	v, err := p.NewInstance(append([]vm.Option{vm.WithInput(input)}, vmOpts...)...)
	if err != nil {
		return 0, 0, err
	}
	if rt != nil {
		rt(v)
	}
	start := time.Now()
	res, err := v.Run(args...)
	if err != nil {
		return 0, 0, err
	}
	return time.Since(start), res, nil
}

// measureWorkload returns baseline and POLaR-hardened run times for one
// workload, verifying checksum equality on the way. The returned runtime
// and engine performance counters are the last hardened rep's — probes,
// cache hits, inline-cache traffic and fused dispatches of one
// representative execution under cfg.
//
// Methodology: baseline and hardened executions are interleaved and the
// minimum over reps is taken for each — min-of-N is far more robust to
// scheduler/co-tenant noise than the mean or median for CPU-bound
// deterministic work, and interleaving keeps slow system phases from
// biasing one configuration. Both modules are compiled to a vm.Program
// once; every rep is a cheap instance, so the measured interval is the
// run itself, not validation and layout. All reps of one workload run
// on the caller's goroutine — a parallel experiment pins each
// workload's timings to one worker.
func measureWorkload(w *workload.Workload, reps int, seed int64, cfg core.Config) (base, polar time.Duration, rt *core.Runtime, perf vm.Perf, err error) {
	baseProg, err := vm.Compile(ir.Clone(w.Module))
	if err != nil {
		return 0, 0, nil, perf, fmt.Errorf("%s: %w", w.Name, err)
	}
	ins, err := instrument.Apply(w.Module, nil)
	if err != nil {
		return 0, 0, nil, perf, fmt.Errorf("%s: instrument: %w", w.Name, err)
	}
	insProg, err := vm.Compile(ins.Module)
	if err != nil {
		return 0, 0, nil, perf, fmt.Errorf("%s: instrumented: %w", w.Name, err)
	}
	if reps < 1 {
		reps = 1
	}

	// All hardened reps share one layout-dedup table: identical layouts
	// regenerated across reps intern to one record, as they would for
	// repeated runs of a deployed binary.
	interner := core.NewLayoutInterner()

	var wantSum int64
	first := true
	base, polar = time.Duration(1<<62), time.Duration(1<<62)
	runSeed := seed
	for i := 0; i < reps; i++ {
		d, sum, err := runOnce(baseProg, w.Input, w.Args, nil)
		if err != nil {
			return 0, 0, nil, perf, fmt.Errorf("%s: baseline: %w", w.Name, err)
		}
		if first {
			wantSum, first = sum, false
		} else if sum != wantSum {
			return 0, 0, nil, perf, fmt.Errorf("%s: baseline checksum drift", w.Name)
		}
		if d < base {
			base = d
		}

		runSeed++
		var hv *vm.VM
		d, sum, err = runOnce(insProg, w.Input, w.Args, func(v *vm.VM) {
			c := cfg
			c.Seed = runSeed
			c.Interner = interner
			rt = core.New(ins.Table, c)
			rt.Attach(v)
			hv = v
		})
		if err != nil {
			return 0, 0, nil, perf, fmt.Errorf("%s: hardened: %w", w.Name, err)
		}
		if sum != wantSum {
			return 0, 0, nil, perf, fmt.Errorf("%s: hardened checksum %d != baseline %d", w.Name, sum, wantSum)
		}
		perf = hv.Perf
		if d < polar {
			polar = d
		}
	}
	return base, polar, rt, perf, nil
}

func overheadPct(base, polar time.Duration) float64 {
	if base <= 0 {
		return 0
	}
	return 100 * (float64(polar) - float64(base)) / float64(base)
}
