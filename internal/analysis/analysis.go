// Package analysis is the static-analysis counterpart to the dynamic
// TaintClass campaign: a reusable dataflow framework over the IR (CFG,
// dominators, call graph, def-use chains, a generic fixed-point
// solver) plus three passes built on a shared abstract interpreter —
//
//   - static TaintClass: which classes untrusted input may reach,
//     ranked, convertible into a randomization policy without running
//     a single input;
//   - the layout-compatibility lint: the §VI.B idioms (raw interior
//     arithmetic, cross-class and partial struct copies, escaping
//     interior pointers) that break under per-allocation layouts;
//   - definite use-after-free / double-free detection over
//     liveness-of-allocation.
//
// cmd/polarlint is the command-line surface; polarc -lint runs the
// same passes before instrumentation.
package analysis

import (
	"time"

	"polar/internal/ir"
	"polar/internal/telemetry"
)

// ContextInsensitive is the Options.ContextK value that disables heap
// cloning entirely (one region per allocation site, one summary per
// function — the pre-context analysis).
const ContextInsensitive = -1

// Options configures Analyze.
type Options struct {
	// Taint, Lint, UAF select the passes; EnableAll turns on all
	// three regardless.
	Taint, Lint, UAF bool
	EnableAll        bool
	// SiteFacts additionally classifies every member-access site as
	// monomorphic / polymorphic / unknown (Result.Sites), the artifact
	// polarlint -facts writes.
	SiteFacts bool
	// ContextK is the call-string depth of the heap-cloning contexts:
	// 0 selects the default (2), ContextInsensitive (-1) disables
	// cloning, any positive k analyzes each function once per k-limited
	// calling context.
	ContextK int
	// MaxContexts caps the enumerated contexts per function before the
	// enumeration widens into the empty context (0 = default 64).
	MaxContexts int
	// Metrics, when non-nil, receives per-pass timing and finding
	// counts (analysis.<pass>.seconds, analysis.<pass>.findings).
	Metrics *telemetry.Registry
}

// Result is one module's full analysis output.
type Result struct {
	Module string `json:"module"`
	// Taint is the static TaintClass verdict (nil if the pass was off).
	Taint *TaintResult `json:"taint,omitempty"`
	// Findings are the lint + UAF diagnostics in module order.
	Findings Findings `json:"findings"`
	// PassSeconds records wall time per pass (including "interp", the
	// shared abstract-interpretation fixpoint).
	PassSeconds map[string]float64 `json:"passSeconds,omitempty"`
	// Sites is the member-access site classification (nil unless
	// Options.SiteFacts was set).
	Sites *SiteFacts `json:"sites,omitempty"`
}

// Analyze runs the selected passes over m. The module should be
// uninstrumented (polarc -lint runs this before the layout pass); on
// instrumented modules the fieldptr-level rules have nothing left to
// look at.
func Analyze(m *ir.Module, opts Options) *Result {
	if opts.EnableAll || (!opts.Taint && !opts.Lint && !opts.UAF) {
		opts.Taint, opts.Lint, opts.UAF = true, true, true
	}
	res := &Result{Module: m.Name, PassSeconds: make(map[string]float64)}

	timed := func(name string, f func()) {
		start := time.Now()
		f()
		secs := time.Since(start).Seconds()
		res.PassSeconds[name] = secs
		if opts.Metrics != nil {
			opts.Metrics.Gauge("analysis." + name + ".seconds").Set(secs)
		}
	}

	mi := BuildModuleInfo(m)
	var ip *interp
	timed("interp", func() {
		ip = newInterp(mi, opts)
		ip.run()
	})
	if opts.Taint {
		timed("taint", func() { res.Taint = taintPass(ip) })
		if opts.Metrics != nil {
			opts.Metrics.Counter("analysis.taint.classes").Set(uint64(len(res.Taint.Classes)))
		}
	}
	if opts.Lint {
		var fs Findings
		timed("lint", func() { fs = lintPassRun(ip) })
		res.Findings = append(res.Findings, fs...)
		if opts.Metrics != nil {
			opts.Metrics.Counter("analysis.lint.findings").Set(uint64(len(fs)))
		}
	}
	if opts.UAF {
		var fs Findings
		timed("uaf", func() { fs = uafPassRun(ip) })
		res.Findings = append(res.Findings, fs...)
		if opts.Metrics != nil {
			opts.Metrics.Counter("analysis.uaf.findings").Set(uint64(len(fs)))
		}
	}
	if opts.SiteFacts {
		timed("sitefacts", func() { res.Sites = siteFactsPass(ip) })
		if opts.Metrics != nil {
			opts.Metrics.Counter("analysis.sitefacts.sites").Set(uint64(len(res.Sites.Sites)))
		}
	}
	res.Findings.Sort(m)
	return res
}
