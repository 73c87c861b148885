// Package polar is the public API of the POLaR reproduction: a
// per-allocation object layout randomization toolchain (DSN 2019) over
// a miniature typed IR and virtual machine.
//
// The pipeline mirrors the paper's Fig. 3:
//
//	m, _ := polar.Parse(src)                // or build with the ir.Builder
//	rep, _ := polar.AnalyzeTaint(m, corpus) // TaintClass: pick targets
//	h, _ := polar.Harden(m, rep.TaintedClasses()) // instrument + CIE
//	res, _ := polar.RunHardened(h, input, polar.WithSeed(42))
//
// Harden clones and rewrites the module so allocations, member
// accesses, frees and object copies of the target classes go through
// the POLaR runtime, which gives every allocation an independently
// randomized in-object layout, plants booby-trap dummies around
// function pointers, and flags use-after-free, double-free and
// type-confused accesses.
package polar

import (
	"fmt"
	"io"

	"polar/internal/classinfo"
	"polar/internal/core"
	"polar/internal/fuzz"
	"polar/internal/instrument"
	"polar/internal/ir"
	"polar/internal/layout"
	"polar/internal/policy"
	"polar/internal/taint"
	"polar/internal/telemetry"
	"polar/internal/telemetry/exectrace"
	"polar/internal/telemetry/flight"
	"polar/internal/telemetry/profile"
	"polar/internal/vm"
)

// Module is a program in the POLaR IR.
type Module = ir.Module

// TaintReport is the TaintClass verdict for a program.
type TaintReport = taint.Report

// RuntimeStats are the POLaR runtime counters (Table III's columns).
type RuntimeStats = core.Stats

// Violation is the error produced when the runtime detects an attack
// symptom under the abort policy.
type Violation = core.Violation

// ViolationRecord is the structured record kept for every detection
// (under both policies); see Result.Violations.
type ViolationRecord = core.ViolationRecord

// Telemetry is the unified observability layer: a typed event bus, a
// metrics registry and an optional pipeline tracer. Create one with
// NewTelemetry, pass it via WithTelemetry, and snapshot its Registry
// after the run.
type Telemetry = telemetry.Telemetry

// MetricsSnapshot is a point-in-time copy of a telemetry registry.
type MetricsSnapshot = telemetry.Snapshot

// NewTelemetry returns an enabled observability layer whose event bus
// feeds per-kind event counters in the registry.
func NewTelemetry() *Telemetry { return telemetry.New() }

// Tracer emits Chrome trace-event–format JSON (chrome://tracing).
type Tracer = telemetry.Tracer

// TraceSpan is an open phase on a Tracer's timeline.
type TraceSpan = telemetry.Span

// NewTracer returns a tracer writing trace-event JSON to w; attach it
// with Telemetry.WithTracer and Close it when the pipeline is done.
func NewTracer(w io.Writer) *Tracer { return telemetry.NewTracer(w) }

// SiteProfiler accumulates the VM-level hot-site profile: interpreted
// cycles, member resolutions and metadata-table probes attributed to IR
// instruction sites ("@fn.block"). Create one with NewSiteProfiler,
// attach it via WithProfiler, then render Report(n) or WritePprof.
type SiteProfiler = profile.SiteProfiler

// NewSiteProfiler returns an empty hot-site profiler.
func NewSiteProfiler() *SiteProfiler { return profile.NewSiteProfiler() }

// Parse reads the textual IR form (see internal/ir: Print/Parse).
func Parse(src string) (*Module, error) { return ir.Parse(src) }

// Format renders a module in the textual IR form.
func Format(m *Module) string { return ir.Print(m) }

// Validate checks module well-formedness.
func Validate(m *Module) error { return ir.Validate(m) }

// Hardened is a POLaR-instrumented program: the rewritten module plus
// the embedded class information (CIE output).
type Hardened struct {
	Module *Module
	table  *classinfo.Table

	// perClass holds taint-tuned layout overrides (see TuneFromTaint).
	perClass map[uint64]layout.Config

	// RewrittenAllocs etc. count what the pass changed.
	RewrittenAllocs    int
	RewrittenAccesses  int
	RewrittenFrees     int
	RewrittenCopies    int
	SkippedRawAccesses int
}

// TuneFromTaint derives per-class layout configurations from a
// TaintClass report — the §IV.B.1 feedback loop ("TaintClass identifies
// exactly which object members ... are tainted. This information is
// used later for optimizing the efficacy and dummy variable insertion
// of POLaR"):
//
//   - classes whose *pointer* members are input-tainted are the juicy
//     hijack targets: they get booby traps plus an extra dummy member
//     (more entropy where it matters);
//   - classes whose life cycle is input-controlled (alloc/free under
//     tainted branches — the UAF grooming surface) keep traps and the
//     default dummies;
//   - classes tainted only in plain data members get the base
//     configuration with one fewer dummy (cheaper, still randomized).
//
// The overrides take effect in the next RunHardened.
func (h *Hardened) TuneFromTaint(rep *TaintReport) {
	base := layout.DefaultConfig()
	h.perClass = make(map[uint64]layout.Config)
	for _, cls := range h.table.Classes() {
		obj, ok := rep.Object(cls.Name())
		if !ok || !obj.Tainted() {
			continue
		}
		cfg := base
		pointerTainted := false
		for _, ft := range obj.SortedFields() {
			if ft.IsPointer {
				pointerTainted = true
			}
		}
		switch {
		case pointerTainted:
			cfg.BoobyTraps = true
			cfg.MinDummies = base.MinDummies + 1
			cfg.MaxDummies = base.MaxDummies + 1
		case obj.AllocTainted || obj.FreeTainted:
			// keep base: traps + default dummies
		default:
			if cfg.MinDummies > 0 {
				cfg.MinDummies--
			}
			if cfg.MaxDummies > cfg.MinDummies+1 {
				cfg.MaxDummies--
			}
		}
		h.perClass[cls.Hash] = cfg
	}
}

// HardenWithPolicy instruments exactly the classes a policy file names
// and applies its per-class tuning — the polarc -policy path of the
// taintclass → polarc pipeline.
func HardenWithPolicy(m *Module, p *policy.Policy) (*Hardened, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	h, err := Harden(m, p.Targets)
	if err != nil {
		return nil, err
	}
	h.perClass = make(map[uint64]layout.Config, len(p.Classes))
	for name, cp := range p.Classes {
		cls, ok := h.table.ByName(name)
		if !ok {
			// The class may be annotated norandom; the table filtered it.
			continue
		}
		h.perClass[cls.Hash] = cp.LayoutConfig()
	}
	return h, nil
}

// PolicyFromTaint builds the serializable policy artifact from a
// TaintClass report (what taintclass -o writes).
func PolicyFromTaint(rep *TaintReport, generator string) *policy.Policy {
	return policy.FromTaintReport(rep, generator)
}

// Policy re-exports the policy-file type for cmd use.
type Policy = policy.Policy

// LoadPolicy reads a policy file.
func LoadPolicy(path string) (*Policy, error) { return policy.Load(path) }

// PerClassConfig exposes the tuned configuration for one class (tests,
// diagnostics).
func (h *Hardened) PerClassConfig(className string) (layout.Config, bool) {
	cls, ok := h.table.ByName(className)
	if !ok || h.perClass == nil {
		return layout.Config{}, false
	}
	cfg, ok := h.perClass[cls.Hash]
	return cfg, ok
}

// Harden instruments accesses to the target classes (nil = all classes,
// as in the paper's whole-program compatibility experiment §V.A;
// normally pass a TaintClass report's TaintedClasses()).
func Harden(m *Module, targets []string) (*Hardened, error) {
	return HardenTraced(m, targets, nil)
}

// HardenTraced is Harden with pipeline tracing: when t carries a
// tracer, the CIE and rewrite phases appear as spans on its timeline.
func HardenTraced(m *Module, targets []string, t *Telemetry) (*Hardened, error) {
	var tr *telemetry.Tracer
	if t != nil {
		tr = t.Tracer
	}
	res, err := instrument.ApplyTraced(m, targets, tr)
	if err != nil {
		return nil, err
	}
	return &Hardened{
		Module:             res.Module,
		table:              res.Table,
		RewrittenAllocs:    res.Rewrites.Allocs,
		RewrittenAccesses:  res.Rewrites.FieldPtrs,
		RewrittenFrees:     res.Rewrites.Frees,
		RewrittenCopies:    res.Rewrites.Memcpys,
		SkippedRawAccesses: res.Rewrites.SkippedRawAccess,
	}, nil
}

// options collects run configuration.
type options struct {
	seed        int64
	input       []byte
	args        []int64
	fuel        uint64
	warnOnly    bool
	cacheSize   int
	resolveMode core.LayoutMode
	rekeyEvery  int
	dummiesMin  int
	dummiesMax  int
	setDummies  bool
	traceW      io.Writer
	traceMax    int
	policy      *policy.Policy
	tel         *telemetry.Telemetry
	prof        *profile.SiteProfiler
	flight      *flight.Recorder
	xtrace      *exectrace.Writer
}

// Option configures Run and RunHardened.
type Option func(*options)

// WithSeed sets the randomization seed (each real execution would use
// fresh entropy; experiments pin it).
func WithSeed(seed int64) Option { return func(o *options) { o.seed = seed } }

// WithInput provides the untrusted program input.
func WithInput(b []byte) Option { return func(o *options) { o.input = b } }

// WithArgs passes integer arguments to @main.
func WithArgs(args ...int64) Option { return func(o *options) { o.args = args } }

// WithFuel bounds execution length.
func WithFuel(n uint64) Option { return func(o *options) { o.fuel = n } }

// WithWarnPolicy counts violations instead of aborting on them.
func WithWarnPolicy() Option { return func(o *options) { o.warnOnly = true } }

// WithCacheSize sets the offset-lookup cache capacity (-1 disables).
// In stateless mode the same knob sizes the derivation memo.
func WithCacheSize(n int) Option { return func(o *options) { o.cacheSize = n } }

// LayoutMode selects the layout-resolution strategy: LayoutModeMetadata
// (the paper's per-object metadata table, the default) or
// LayoutModeStateless (SPAM-style keyed derivation from the base
// address — zero metadata bytes, no UAF detection). Parse textual flag
// values with ParseLayoutMode.
type LayoutMode = core.LayoutMode

// Layout-resolution strategies (see LayoutMode).
const (
	LayoutModeMetadata  = core.LayoutModeMetadata
	LayoutModeStateless = core.LayoutModeStateless
)

// ParseLayoutMode maps flag spellings ("metadata", "table", "stateless",
// "") to a LayoutMode.
func ParseLayoutMode(s string) (LayoutMode, error) { return core.ParseLayoutMode(s) }

// WithLayoutMode selects the layout-resolution strategy for the run.
// Per-class overrides (norandom/pinned classes) apply in every mode.
func WithLayoutMode(m LayoutMode) Option { return func(o *options) { o.resolveMode = m } }

// WithRekeyEvery makes stateless mode advance its derivation epoch —
// re-randomizing every live object's layout in place — after every n
// instrumented frees (0, the default, disables rekeying). Ignored in
// metadata mode, which re-randomizes per object on copy instead.
func WithRekeyEvery(n int) Option { return func(o *options) { o.rekeyEvery = n } }

// WithDummies overrides the dummy-member count range.
func WithDummies(min, max int) Option {
	return func(o *options) { o.dummiesMin, o.dummiesMax, o.setDummies = min, max, true }
}

// WithTrace streams the first maxLines executed instructions to w
// (0 = unlimited) — a debugging aid; see polarun -trace.
func WithTrace(w io.Writer, maxLines int) Option {
	return func(o *options) { o.traceW, o.traceMax = w, maxLines }
}

// WithPolicy applies a policy file's per-class tuning at run time
// (polarun -policy): the textual hardened-module form does not carry
// tuning, so the runtime re-applies it from the artifact.
func WithPolicy(p *Policy) Option { return func(o *options) { o.policy = p } }

// WithTelemetry attaches an observability layer to the run: olr_* and
// VM events go to its bus, metrics to its registry, and — when a tracer
// is attached — the run appears as a span on its timeline. Disabled
// (nil, the default) telemetry costs one branch per emission point.
func WithTelemetry(t *Telemetry) Option { return func(o *options) { o.tel = t } }

// FlightRecorder is the security flight recorder: a fixed-size ring of
// recent runtime events that the POLaR runtime snapshots into a
// deterministic forensic dump on every detected violation (and on
// demand via CaptureFinal). Create one with NewFlightRecorder and pass
// it via WithFlightRecorder alongside WithTelemetry.
type FlightRecorder = flight.Recorder

// ForensicDump is one captured flight-recorder snapshot.
type ForensicDump = flight.Dump

// NewFlightRecorder returns a flight recorder retaining the last
// ringCap events (<= 0 selects the default of 256).
func NewFlightRecorder(ringCap int) *FlightRecorder { return flight.NewRecorder(ringCap) }

// WithFlightRecorder attaches a flight recorder to the run. Its event
// window is fed from the run's bus: with WithTelemetry it also sees the
// VM's events (fuel checkpoints, raw allocations), without it only the
// runtime's.
func WithFlightRecorder(r *FlightRecorder) Option { return func(o *options) { o.flight = r } }

// ExecTraceWriter streams the deterministic execution trace (schema
// polar-exectrace/v1): block entries, calls, every olr_* operation
// with its resolved offset, fuel checkpoints and violations, in
// program order with no wall-clock state — the same module under the
// same seed produces a byte-identical trace. Create
// one per run with NewExecTrace, pass it via WithExecTrace, and Close
// it after the run to write the footer. Inspect, aggregate and diff
// traces with cmd/polartrace.
type ExecTraceWriter = exectrace.Writer

// NewExecTrace returns an execution-trace writer streaming to w. The
// writer buffers internally; Close flushes and appends the footer but
// does not close w.
func NewExecTrace(w io.Writer) *ExecTraceWriter { return exectrace.NewWriter(w) }

// NewExecTraceLimit is NewExecTrace with a record cap: events past
// maxRecords are dropped (and counted), while the string table and
// footer stay intact so the truncated trace still parses.
func NewExecTraceLimit(w io.Writer, maxRecords uint64) *ExecTraceWriter {
	return exectrace.NewWriterLimit(w, maxRecords)
}

// WithExecTrace attaches an execution-trace writer to the run. A run
// with a trace but no WithTelemetry gets a private telemetry layer, so
// the trace still carries the VM's bus-fed records (fuel checkpoints,
// raw allocations). Writers are single-owner: give each concurrent run
// its own.
func WithExecTrace(w *ExecTraceWriter) Option { return func(o *options) { o.xtrace = w } }

// WithProfiler attaches a hot-site profiler to the run: the VM charges
// interpreted cycles to each basic block it enters, and the runtime
// attributes member resolutions and metadata probes to the olr_* call
// sites. Sharing one profiler across runs aggregates their profiles.
func WithProfiler(p *SiteProfiler) Option { return func(o *options) { o.prof = p } }

// Result is the outcome of one execution.
type Result struct {
	// Value is @main's return value.
	Value int64
	// Output is what the program printed.
	Output []byte
	// Runtime holds the POLaR counters (zero-valued for baseline runs).
	Runtime RuntimeStats
	// VM holds the interpreter counters.
	VM vm.Stats
	// Perf holds the bytecode engine's performance-path counters
	// (inline layout-cache hits/misses, fused dispatches). Runs with
	// WithTrace attached execute the same fused lowering and dispatch
	// its fused runs too.
	Perf vm.Perf
	// Violations are the structured detection records, in order
	// (populated on hardened runs; capped — see core.ViolationRecords).
	Violations []ViolationRecord
	// ViolationsTruncated reports that the record log filled and
	// Violations is a prefix of the detection history;
	// ViolationsDropped counts the records lost past the cap. The
	// per-kind counters in Runtime.Violations still include them.
	ViolationsTruncated bool
	ViolationsDropped   uint64
}

// Prepared is the compiled, ready-to-run form of a program: the module
// is cloned and validated once, globals are laid out once, and (for
// hardened programs) the class table is resolved once. Each Run stamps
// out a cheap per-run instance, so repeated executions pay only for
// the run itself.
//
// A Prepared is safe for concurrent use: any number of goroutines may
// call Run simultaneously, each getting an isolated instance. Hardened
// instances share one layout-deduplication table, so identical layouts
// regenerated across runs intern to a single record.
type Prepared struct {
	prog     *vm.Program
	table    *classinfo.Table
	perClass map[uint64]layout.Config
	interner *core.LayoutInterner
	hardened bool
}

// Prepare compiles a baseline (unhardened) module for repeated runs.
func Prepare(m *Module) (*Prepared, error) {
	prog, err := vm.Compile(ir.Clone(m))
	if err != nil {
		return nil, err
	}
	return &Prepared{prog: prog}, nil
}

// PrepareHardened compiles a hardened program for repeated runs under
// the POLaR runtime.
func PrepareHardened(h *Hardened) (*Prepared, error) {
	mod := ir.Clone(h.Module)
	prog, err := vm.Compile(mod)
	if err != nil {
		return nil, err
	}
	// The hardened module carries its own CIE table; rebuild against the
	// clone's struct identities. A module that went through text form
	// (polarc output) loses the embedded table, but class hashes are
	// deterministic functions of the declarations, so recomputing the
	// CIE over every struct restores it.
	table := classinfo.TableFromModuleClassTable(mod)
	if table.Len() == 0 {
		table, err = classinfo.FromModule(mod, nil)
		if err != nil {
			return nil, fmt.Errorf("polar: rebuilding class table: %w", err)
		}
	}
	return &Prepared{
		prog:     prog,
		table:    table,
		perClass: h.perClass,
		interner: core.NewLayoutInterner(),
		hardened: true,
	}, nil
}

// LoweredFuncStats summarizes the lowered bytecode of one function:
// dispatch counts vs. source instructions, fused runs and micro-ops,
// inline-cache sites and the operand-file width after register
// allocation (polarstat's -lowered section).
type LoweredFuncStats = vm.LoweredFuncStats

// LoweredStats reports per-function lowering statistics of the
// compiled program.
func (p *Prepared) LoweredStats() []LoweredFuncStats { return p.prog.LoweredStats() }

// Fingerprint digests the complete lowered instruction stream. Equal
// fingerprints mean identical bytecode; the lowering determinism gate
// asserts that recompiling the same module agrees here.
func (p *Prepared) Fingerprint() uint64 { return p.prog.Fingerprint() }

// Run executes the prepared program once on a fresh instance.
func (p *Prepared) Run(opts ...Option) (*Result, error) {
	o := gather(opts)
	v, err := p.prog.NewInstance(vmOptions(o)...)
	if err != nil {
		return nil, err
	}
	if !p.hardened {
		val, err := runSpan(v, o)
		if err != nil {
			return nil, err
		}
		publishVM(v, o)
		return &Result{Value: val, Output: v.Output(), VM: v.Stats, Perf: v.Perf}, nil
	}
	cfg := runtimeConfig(o, p.table, p.perClass)
	cfg.Interner = p.interner
	rt := core.New(p.table, cfg)
	rt.Attach(v)
	val, err := runSpan(v, o)
	if err != nil {
		return nil, err
	}
	publishVM(v, o)
	vlog := rt.ViolationLog()
	return &Result{
		Value: val, Output: v.Output(), Runtime: rt.Stats(),
		VM: v.Stats, Perf: v.Perf, Violations: vlog.Records,
		ViolationsTruncated: vlog.Truncated, ViolationsDropped: vlog.Dropped,
	}, nil
}

// Run executes an unhardened module.
func Run(m *Module, opts ...Option) (*Result, error) {
	p, err := Prepare(m)
	if err != nil {
		return nil, err
	}
	return p.Run(opts...)
}

// runSpan executes @main, wrapped in a "run" pipeline span when a
// tracer is attached.
func runSpan(v *vm.VM, o *options) (int64, error) {
	if o.tel != nil && o.tel.Tracer != nil {
		sp := o.tel.Tracer.Begin("run", "pipeline")
		defer sp.End()
	}
	return v.Run(o.args...)
}

// publishVM snapshots interpreter and allocator counters into the
// attached registry (no-op without telemetry).
func publishVM(v *vm.VM, o *options) {
	if o.tel == nil {
		return
	}
	v.Stats.Publish(o.tel.Registry)
	v.Perf.Publish(o.tel.Registry)
	v.Heap.Stats().Publish(o.tel.Registry)
}

// RunHardened executes a hardened program under the POLaR runtime.
// For a single run it prepares and executes in one step; callers
// running the same program repeatedly should PrepareHardened once and
// Run many times.
func RunHardened(h *Hardened, opts ...Option) (*Result, error) {
	p, err := PrepareHardened(h)
	if err != nil {
		return nil, err
	}
	return p.Run(opts...)
}

// runtimeConfig assembles the core runtime configuration from the run
// options, the resolved class table and the hardened program's
// per-class tuning.
func runtimeConfig(o *options, table *classinfo.Table, perClass map[uint64]layout.Config) core.Config {
	cfg := core.DefaultConfig(o.seed)
	cfg.Telemetry = o.tel
	cfg.Profiler = o.prof
	cfg.Flight = o.flight
	cfg.ExecTrace = o.xtrace
	if o.warnOnly {
		cfg.Policy = core.PolicyWarn
	}
	if o.cacheSize != 0 {
		cfg.CacheSize = o.cacheSize
	}
	cfg.LayoutMode = o.resolveMode
	if o.rekeyEvery > 0 {
		cfg.RekeyEvery = o.rekeyEvery
	}
	if o.setDummies {
		cfg.Layout.MinDummies, cfg.Layout.MaxDummies = o.dummiesMin, o.dummiesMax
	}
	if len(perClass) > 0 {
		cfg.PerClass = perClass
	}
	if o.policy != nil {
		// Merge into a copy: cfg.PerClass may alias the prepared
		// program's shared tuning map, and concurrent runs must not
		// write into it.
		merged := make(map[uint64]layout.Config, len(cfg.PerClass)+len(o.policy.Classes))
		for hash, lc := range cfg.PerClass {
			merged[hash] = lc
		}
		for name, cp := range o.policy.Classes {
			if cls, ok := table.ByName(name); ok {
				merged[cls.Hash] = cp.LayoutConfig()
			}
		}
		cfg.PerClass = merged
	}
	return cfg
}

func gather(opts []Option) *options {
	o := &options{seed: 1}
	for _, f := range opts {
		f(o)
	}
	if o.xtrace != nil && o.tel == nil {
		// The trace's fuel-checkpoint, raw-allocation and violation
		// records ride the telemetry bus; a traced run without an
		// explicit observability layer gets a private one so the trace
		// is complete either way.
		o.tel = telemetry.New()
	}
	return o
}

func vmOptions(o *options) []vm.Option {
	vmOpts := []vm.Option{vm.WithInput(o.input)}
	if o.fuel > 0 {
		vmOpts = append(vmOpts, vm.WithFuel(o.fuel))
	}
	if o.traceW != nil {
		vmOpts = append(vmOpts, vm.WithTrace(o.traceW, o.traceMax))
	}
	if o.tel != nil {
		vmOpts = append(vmOpts, vm.WithTelemetry(o.tel))
	}
	if o.prof != nil {
		vmOpts = append(vmOpts, vm.WithProfiler(o.prof))
	}
	if o.xtrace != nil {
		vmOpts = append(vmOpts, vm.WithExecTrace(o.xtrace))
	}
	return vmOpts
}

// AnalyzeTaint runs the TaintClass analysis (DFSan-analogue data-flow
// tracking) over the corpus and returns the merged object report.
func AnalyzeTaint(m *Module, corpus [][]byte) (*TaintReport, error) {
	return taint.Analyze(m, corpus, taint.RunOptions{IgnoreRunErrors: true})
}

// FuzzResult summarizes a coverage-guided campaign.
type FuzzResult struct {
	Corpus   [][]byte
	Crashers [][]byte
	Execs    int
	Edges    int
}

// FuzzForCoverage runs the libFuzzer-analogue campaign used by
// TaintClass to widen taint coverage (§IV.B.2).
func FuzzForCoverage(m *Module, seeds [][]byte, iterations int, seed int64) (*FuzzResult, error) {
	res, err := fuzz.Run(m, seeds, fuzz.Config{
		Iterations: iterations, MaxInputLen: 4096, Seed: seed, Fuel: 30_000_000,
	})
	if err != nil {
		return nil, err
	}
	return &FuzzResult{Corpus: res.Corpus, Crashers: res.Crashers, Execs: res.Execs, Edges: res.Edges}, nil
}

// SelectAndHarden is the full Fig. 3 pipeline: fuzz for coverage, run
// TaintClass, harden exactly the input-dependent classes.
func SelectAndHarden(m *Module, seeds [][]byte, fuzzIters int, seed int64) (*Hardened, *TaintReport, error) {
	corpus := seeds
	if fuzzIters > 0 {
		fr, err := FuzzForCoverage(m, seeds, fuzzIters, seed)
		if err != nil {
			return nil, nil, err
		}
		corpus = fuzz.TaintInputs(seeds, fr.Corpus, fr.Crashers)
	}
	rep, err := AnalyzeTaint(m, corpus)
	if err != nil {
		return nil, nil, err
	}
	h, err := Harden(m, rep.TaintedClasses())
	if err != nil {
		return nil, nil, err
	}
	h.TuneFromTaint(rep)
	return h, rep, nil
}
