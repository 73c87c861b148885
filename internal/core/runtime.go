package core

import (
	"fmt"
	"math/rand"
	"sync"

	"polar/internal/classinfo"
	"polar/internal/layout"
	"polar/internal/telemetry"
	"polar/internal/telemetry/exectrace"
	"polar/internal/telemetry/flight"
	"polar/internal/telemetry/profile"
	"polar/internal/vm"
)

// Config controls the POLaR runtime.
type Config struct {
	// Layout is the randomization configuration (mode, dummies, traps).
	Layout layout.Config
	// Seed drives per-allocation randomness. Each program execution in
	// the paper's threat model uses an unpredictable seed; experiments
	// pin it for reproducibility.
	Seed int64
	// Policy selects abort-on-violation vs count-and-continue.
	Policy Policy
	// CacheSize is the offset-lookup cache capacity in entries
	// (rounded up to a power of two); 0 selects the default 8192 and a
	// negative size disables the cache. Stateless mode sizes its
	// derivation memo with it instead; a negative size disables the
	// memo and the layout table in front of it.
	CacheSize int
	// LayoutMode selects the layout-resolution strategy (resolver.go):
	// LayoutModeMetadata (zero value) is the paper's MetaStore-backed
	// path; LayoutModeStateless recomputes each object's permutation
	// from a keyed hash of its base address — no metadata probe, no
	// per-object record.
	LayoutMode LayoutMode
	// RekeyEvery, in stateless mode, advances the derivation epoch after
	// that many instrumented frees, re-randomizing every live managed
	// object in place. 0 disables rekeying. Ignored in metadata mode
	// (per-allocation layouts are already independent).
	RekeyEvery int
	// RerandomizeOnCopy controls whether olr_memcpy gives the duplicate
	// copy a fresh layout (the paper's default) or clones the source
	// layout ("could be disabled ... for performance-purposes", §IV.A.2).
	// Stateless mode re-randomizes copies inherently (the destination's
	// layout is derived from its own address), so the knob is inert there.
	RerandomizeOnCopy bool
	// DetectUAF enables ghost-metadata use-after-free detection.
	// Metadata mode only: stateless keeps no ghost records, so a
	// dangling access degrades to the static-fallback arm (DESIGN.md
	// §12 has the full per-mode detection matrix).
	DetectUAF bool
	// MetadataIntegrity seals every metadata record with a keyed MAC
	// verified on lookup — the §VI.A hardening (see integrity.go).
	// Metadata mode only: stateless has no records to seal (the keyed
	// derivation plays the equivalent role — forging a layout requires
	// the key).
	MetadataIntegrity bool
	// Interner, when non-nil, is a shared layout-dedup table: runtimes
	// given the same interner pool their canonical layouts, so many
	// instances of one program pay the layout-generation cost once per
	// distinct layout instead of once per instance. Object tables stay
	// private (instance address spaces collide; layouts don't). Nil
	// means a private interner.
	Interner *LayoutInterner
	// PerClass overrides the layout configuration for individual
	// classes (keyed by class hash). This is §IV.B.1's feedback loop:
	// TaintClass reports which members are input-tainted, and POLaR
	// tunes dummy insertion and booby traps per class accordingly.
	PerClass map[uint64]layout.Config
	// Telemetry, when non-nil, attaches the observability layer: olr_*
	// events go to its bus, and the runtime's histograms (offset-cache
	// probe length, layout entropy, intern-chain length) feed its
	// registry. Counters stay native — the member-access path is too hot
	// for atomics — and are snapshotted into the registry by Stats().
	// Note: sharing one Telemetry across runtimes aggregates their
	// metrics; use a fresh Telemetry per runtime for isolation. A
	// *shared* Interner keeps the first attached registry's chain-length
	// histogram for its lifetime, so with per-run registries those
	// observations are credited to the first run (totals survive any
	// Merge of the registries).
	Telemetry *telemetry.Telemetry
	// Flight, when non-nil, is the security flight recorder: the runtime
	// attaches it to the telemetry bus (requires Telemetry) and, on every
	// detected violation, snapshots its event ring into a forensic dump
	// annotated with the victim's heap neighborhood. Off by default; the
	// violation-free cost is one nil check on the (already rare)
	// violation path.
	Flight *flight.Recorder
	// Profiler, when non-nil, attributes member resolutions and
	// metadata-table probes to their instruction sites — the SPAM-style
	// per-access-path attribution the aggregate cache counters cannot
	// give. Share it with the VM (vm.WithProfiler) so sites carry both
	// interpreted cycles and probe counts.
	Profiler *profile.SiteProfiler
	// ExecTrace, when non-nil, is the deterministic execution-trace
	// writer: the runtime records every olr_malloc/olr_free and every
	// olr_getptr resolution (with the chosen offset and resolution
	// path) directly — richer than the bus events, which the writer
	// skips for these kinds to avoid double-counting. Share the writer
	// with the VM (vm.WithExecTrace) so block/call records interleave
	// with the olr_* records in program order.
	ExecTrace *exectrace.Writer
}

// DefaultConfig mirrors the paper's evaluation configuration.
func DefaultConfig(seed int64) Config {
	return Config{
		Layout:            layout.DefaultConfig(),
		Seed:              seed,
		Policy:            PolicyAbort,
		CacheSize:         8192,
		RerandomizeOnCopy: true,
		DetectUAF:         true,
	}
}

// Stats are the runtime counters behind Table III.
type Stats struct {
	Allocs       uint64
	Frees        uint64
	Memcpys      uint64
	MemberAccess uint64
	CacheHits    uint64
	CacheMisses  uint64
	// MetaProbes counts metadata-table lookups made by the member-access
	// path (olr_getptr cache misses in metadata mode; identically zero
	// in stateless mode — the ablation's "no cache needed" row).
	MetaProbes uint64
	// PeakLive is the high-water mark of resolver-managed live objects,
	// the denominator of the metadata-bytes-per-live-object column.
	PeakLive   uint64
	Violations map[ViolationKind]uint64
	// ViolationsDropped counts detections that arrived after the
	// structured record log filled (the counters above still include
	// them; only the per-record detail is lost).
	ViolationsDropped uint64
	Meta              MetaStats
}

// maxViolationRecords caps the structured violation log so a
// warn-policy run under attack cannot grow memory without bound.
const maxViolationRecords = 1024

// Runtime is the POLaR object-tracking runtime attached to one VM.
// It is not safe for concurrent use (the VM is single-threaded).
type Runtime struct {
	cfg   Config
	table *classinfo.Table
	// store backs the metadata strategy. It is always constructed
	// (diagnostics, forensics and tests read it) but the stateless
	// resolver never populates it.
	store *MetaStore
	// cache is the one layout cache (vm.LayoutCache), which Attach hands
	// to the dispatch loops. In metadata mode it is the §V.B offset
	// cache, sized by Config.CacheSize, which Resolve probes and Stats
	// counts. In stateless mode, which has no offset cache, it is a
	// small fixed-size table in front of the derivation memo, nil when
	// the memo is off; its hits are inline hits only.
	cache  *vm.LayoutCache
	rng    *rand.Rand
	secret uint64

	// resolver is the pluggable layout-resolution strategy: every olr_*
	// entry point delegates its strategy-specific ladder here.
	resolver LayoutResolver

	// layoutGen is the generation the layout cache's entries validate
	// against. Entries die per object (free, re-registration, eviction);
	// the generation advances only for a whole-program event, the
	// stateless epoch advance, which drops every entry at once. Starts
	// at 1 so a zeroed (never-written) entry can never match.
	layoutGen uint64

	allocs     uint64
	frees      uint64
	memcpys    uint64
	accesses   uint64
	metaProbes uint64
	// liveObjs/peakLive track the resolver-managed object population
	// (the bytes-per-live-object denominator).
	liveObjs   uint64
	peakLive   uint64
	violations map[ViolationKind]uint64

	// Structured violation log (capped; see maxViolationRecords).
	// recMu guards both fields: the run appends on the violation path
	// while a live observer (WithRuntimeObserver, the introspection
	// endpoint) may read them from another goroutine.
	recMu          sync.Mutex
	records        []ViolationRecord
	droppedRecords uint64
	// curCall is the olr_* builtin call currently being dispatched; it
	// carries the instruction site for violation records. Set by the
	// Attach wrappers, read only on the (rare) violation path.
	curCall *vm.Call
	// curField is the member index the dispatched call names (-1 when
	// the operation carries none); stamped into violation records so the
	// offset-probe-scan detector can distinguish probes at different
	// member offsets.
	curField int

	// Observability layer (all nil/zero when Config.Telemetry is unset;
	// the emission points then cost one branch each).
	tel         *telemetry.Telemetry
	histProbe   *telemetry.Histogram // olr_getptr probe length (1=cache hit)
	histEntropy *telemetry.Histogram // entropy bits of each generated layout

	// Execution-trace writer (nil when Config.ExecTrace is unset; the
	// emission points then cost one branch each).
	xt *exectrace.Writer

	// Hot-site profiler (nil when Config.Profiler is unset). profSites
	// caches the per-site counter cells keyed by the interned site
	// string, so attribution is one map hit per access.
	prof      *profile.SiteProfiler
	profSites map[string]*profile.SiteCounts
	// profGens caches the per-class layout-generation counter cells
	// (keyed by class hash), mirroring profSites.
	profGens map[uint64]*profile.GenCounts

	// inputs caches each class's layout-generation inputs (keyed by
	// class hash), built on the class's first layout.
	inputs map[uint64]*classInputs
	// scratch receives every layout the metadata strategy generates; it
	// is interned (copied on first sight) or discarded before the next
	// generation, so a layout the interner has seen costs no allocation.
	scratch layout.Layout
}

// New creates a runtime for the classes in table.
func New(table *classinfo.Table, cfg Config) *Runtime {
	if cfg.CacheSize == 0 {
		cfg.CacheSize = 8192
	}
	if cfg.CacheSize < 0 {
		cfg.CacheSize = 0 // explicit disable for ablation
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	r := &Runtime{
		cfg:        cfg,
		table:      table,
		store:      NewSharedMetaStore(cfg.Interner),
		rng:        rng,
		secret:     rng.Uint64() | 1,
		violations: make(map[ViolationKind]uint64),
		curField:   -1,
		layoutGen:  1,
		inputs:     make(map[uint64]*classInputs),
	}
	// The stateless key halves are drawn after the canary secret, so the
	// metadata strategy's layout-generation stream is byte-identical to
	// what it was before the strategy layer existed.
	switch cfg.LayoutMode {
	case LayoutModeStateless:
		r.resolver = newStatelessResolver(r)
		if cfg.CacheSize > 0 {
			r.cache = vm.NewLayoutCache(vm.SmallCacheSize, &r.layoutGen)
		}
	default:
		r.resolver = &metaResolver{rt: r}
		r.cache = vm.NewLayoutCache(cfg.CacheSize, &r.layoutGen)
	}
	if t := cfg.Telemetry; t != nil {
		r.tel = t
		r.histProbe = t.Registry.Histogram(telemetry.MetricCacheProbeLen, telemetry.ProbeLenBuckets)
		r.histEntropy = t.Registry.Histogram(telemetry.MetricLayoutEntropy, telemetry.EntropyBuckets)
		// Attach-once: a shared interner (Prepared, evalrun) keeps the
		// first run's histogram for its lifetime; observations from all
		// runs land in that one registry (merged snapshots stay correct)
		// instead of racing to re-point the shared field per run.
		r.store.interner.AttachChainHist(t.Registry.Histogram(telemetry.MetricInternChainLen, telemetry.ChainLenBuckets))
		// The flight recorder needs the bus for its event window; attach
		// is idempotent so a recorder surviving across runs of one
		// Prepared program subscribes once.
		if cfg.Flight != nil {
			cfg.Flight.AttachOnce(t.Bus)
		}
		// The exectrace writer rides the bus for layout-gen, rerand,
		// violation and fuel-checkpoint events (its direct records below
		// cover the hot olr_* operations). Idempotent, like Flight.
		if cfg.ExecTrace != nil {
			cfg.ExecTrace.AttachOnce(t.Bus)
		}
	}
	if cfg.ExecTrace != nil {
		r.xt = cfg.ExecTrace
	}
	if cfg.Profiler != nil {
		r.prof = cfg.Profiler
		r.profSites = make(map[string]*profile.SiteCounts)
		r.profGens = make(map[uint64]*profile.GenCounts)
	}
	return r
}

// profSite returns the profiler cell for the current olr_* call site.
func (r *Runtime) profSite() *profile.SiteCounts {
	site := r.curCall.Site()
	sc, ok := r.profSites[site]
	if !ok {
		sc = r.prof.Site(site)
		r.profSites[site] = sc
	}
	return sc
}

// Telemetry returns the attached observability layer (nil if none).
func (r *Runtime) Telemetry() *telemetry.Telemetry { return r.cfg.Telemetry }

// Stats returns a snapshot of the counters. When telemetry is attached
// the snapshot is also published into the registry (counters under
// "core.", plus the metadata-table load-factor gauge), so a registry
// snapshot taken after Stats() reflects the runtime's full state.
func (r *Runtime) Stats() Stats {
	s := Stats{
		Allocs:            r.allocs,
		Frees:             r.frees,
		Memcpys:           r.memcpys,
		MemberAccess:      r.accesses,
		MetaProbes:        r.metaProbes,
		PeakLive:          r.peakLive,
		Violations:        make(map[ViolationKind]uint64, len(r.violations)),
		ViolationsDropped: r.DroppedViolations(),
		Meta:              r.store.Stats(),
	}
	if r.resolver.Mode() == LayoutModeMetadata {
		s.CacheHits, s.CacheMisses = r.cache.Hits(), r.cache.Misses()
	}
	for k, v := range r.violations {
		s.Violations[k] = v
	}
	if r.tel != nil {
		s.Publish(r.tel.Registry)
		live, total := r.store.Counts()
		lf := 0.0
		if total > 0 {
			lf = float64(live) / float64(total)
		}
		r.tel.Registry.Gauge(telemetry.MetricMetaLoadFactor).Set(lf)
	}
	return s
}

// ViolationCount sums detections of the given kind.
func (r *Runtime) ViolationCount(kind ViolationKind) uint64 { return r.violations[kind] }

// ViolationRecords returns a copy of the structured violation log, in
// detection order (capped at maxViolationRecords; DroppedViolations
// reports overflow).
func (r *Runtime) ViolationRecords() []ViolationRecord {
	return r.ViolationLog().Records
}

// DroppedViolations returns how many violation records were discarded
// after the log filled.
func (r *Runtime) DroppedViolations() uint64 {
	r.recMu.Lock()
	defer r.recMu.Unlock()
	return r.droppedRecords
}

// ViolationLog returns the structured violation log together with its
// truncation state, so consumers cannot mistake a capped log for the
// complete detection history. Safe to call while the run executes.
func (r *Runtime) ViolationLog() RecordSet {
	r.recMu.Lock()
	defer r.recMu.Unlock()
	out := make([]ViolationRecord, len(r.records))
	copy(out, r.records)
	return RecordSet{
		Records:   out,
		Truncated: r.droppedRecords > 0,
		Dropped:   r.droppedRecords,
	}
}

// Store exposes the metadata table (tests, diagnostics). In stateless
// mode it exists but stays empty.
func (r *Runtime) Store() *MetaStore { return r.store }

// Resolver exposes the active layout-resolution strategy.
func (r *Runtime) Resolver() LayoutResolver { return r.resolver }

// Rerandomize forces a global re-randomization pass (stateless epoch
// advance + live-object remap); reports false when the active strategy
// has no global rekey.
func (r *Runtime) Rerandomize(v *vm.VM) (bool, error) { return r.resolver.Rerandomize(v) }

// MetadataBytesPerLiveObject amortizes the strategy's per-object
// metadata footprint over the peak live population — the ablation's
// memory column. Identically zero in stateless mode.
func (r *Runtime) MetadataBytesPerLiveObject() float64 {
	if r.peakLive == 0 {
		return 0
	}
	return float64(r.resolver.MetadataBytes()) / float64(r.peakLive)
}

// noteLiveObject records one more resolver-managed live object.
func (r *Runtime) noteLiveObject() {
	r.liveObjs++
	if r.liveObjs > r.peakLive {
		r.peakLive = r.liveObjs
	}
}

// LookupObject returns the metadata for an object base, if tracked.
func (r *Runtime) LookupObject(base uint64) (*ObjectMeta, bool) { return r.store.Lookup(base) }

// violate records a detection. classHash 0 means the class is unknown
// (e.g. invalid free); meta, when non-nil, supplies the layout identity.
// Every detection — under both policies — appends a structured record
// and emits an EvViolation event; PolicyAbort additionally returns the
// *Violation error.
func (r *Runtime) violate(kind ViolationKind, addr uint64, classHash uint64, meta *ObjectMeta) error {
	var layoutID uint64
	if meta != nil && meta.Layout != nil {
		layoutID = meta.Layout.Hash()
	}
	return r.violateWith(kind, addr, classHash, layoutID, meta)
}

// violateWith is the metadata-free entry: stateless-mode detections
// carry a derived layout identity but no ObjectMeta (forensic dumps
// then locate the victim through the allocator instead of the record).
func (r *Runtime) violateWith(kind ViolationKind, addr, classHash, layoutID uint64, meta *ObjectMeta) error {
	r.violations[kind]++
	class := "?"
	if classHash != 0 {
		class = r.className(classHash)
	}
	site := r.curCall.Site()
	field := r.curField
	r.recMu.Lock()
	if len(r.records) < maxViolationRecords {
		r.records = append(r.records, ViolationRecord{
			Kind: kind, KindName: kind.String(), Addr: addr, Class: class,
			ClassHash: classHash, LayoutID: layoutID, Field: field, Site: site,
		})
	} else {
		r.droppedRecords++
	}
	r.recMu.Unlock()
	if r.tel != nil {
		r.tel.Emit(telemetry.Event{
			Kind: telemetry.EvViolation, Addr: addr, Class: classHash,
			Layout: layoutID, Field: field, Site: site, Detail: kind.String(),
		})
	}
	if r.cfg.Flight != nil {
		// After the EvViolation emit, so the dump's event window includes
		// the violation itself.
		r.captureForensics(kind, addr, class, classHash, layoutID, field, site, meta)
	}
	if r.cfg.Policy == PolicyAbort {
		return &Violation{
			Kind: kind, Addr: addr, Class: class,
			ClassHash: classHash, LayoutID: layoutID, Field: field, Site: site,
		}
	}
	return nil
}

// canary derives the booby-trap value for a trap slot of the object at
// base. It depends on a per-run secret, so an attacker who can spray
// bytes cannot forge it without an information leak.
func (r *Runtime) canary(base uint64, slotOff int) uint64 {
	x := base ^ r.secret ^ (uint64(slotOff) * 0x9e3779b97f4a7c15)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return x
}

// Attach registers the olr_* ABI on the VM. The class table used is the
// one embedded in the module if present (hardened binary), else the
// table given at construction. Each wrapper stashes the call so the
// violation path can stamp records with the instruction site.
func (r *Runtime) Attach(v *vm.VM) {
	v.RegisterBuiltin("olr_malloc", func(c *vm.Call) (int64, error) {
		r.curCall, r.curField = c, -1
		return r.olrMalloc(c.VM, uint64(c.Arg(0)))
	})
	v.RegisterBuiltin("olr_free", func(c *vm.Call) (int64, error) {
		r.curCall, r.curField = c, -1
		return 0, r.olrFree(c.VM, uint64(c.Arg(0)))
	})
	v.RegisterBuiltin("olr_getptr", func(c *vm.Call) (int64, error) {
		r.curCall, r.curField = c, int(c.Arg(1))
		return r.olrGetptr(c.VM, uint64(c.Arg(0)), int(c.Arg(1)), uint64(c.Arg(2)))
	})
	v.RegisterBuiltin("olr_memcpy", func(c *vm.Call) (int64, error) {
		r.curCall, r.curField = c, -1
		return 0, r.olrMemcpy(c.VM, uint64(c.Arg(0)), uint64(c.Arg(1)), int(c.Arg(2)), uint64(c.Arg(3)))
	})
	v.RegisterBuiltin("olr_check", func(c *vm.Call) (int64, error) {
		r.curCall, r.curField = c, -1
		return r.olrCheck(c.VM, uint64(c.Arg(0)))
	})
	// Hand the dispatch loops the layout cache, and the hit callback
	// that replays this runtime's resolver observables when a site skips
	// the builtin entirely.
	v.UseLayoutCache(r.cache, r.icFieldHit)
}

// profSiteFor is profSite for a caller that carries the site string
// itself (the layout-cache hit callback runs without curCall set — the
// builtin dispatch was skipped).
func (r *Runtime) profSiteFor(site string) *profile.SiteCounts {
	sc, ok := r.profSites[site]
	if !ok {
		sc = r.prof.Site(site)
		r.profSites[site] = sc
	}
	return sc
}

// icFieldHit is the VM's layout-cache hit callback: a dispatch loop
// found the olr_getptr resolution in r.cache and skipped the builtin.
// The runtime's observable stream must be indistinguishable from the
// resolver's own hit — trace identity across engines depends on every
// dispatch loop calling this at the same points — so it replays exactly
// what that arm would have done: the metadata strategy's offset-cache
// hit (probe length 1; the cache counted the hit itself) or the
// stateless memo hit (probe length 0, no cache counters — the stateless
// ablation row asserts they stay zero).
func (r *Runtime) icFieldHit(site string, base uint64, field int64, class uint64, off int64) {
	r.accesses++
	if r.prof != nil {
		r.profSiteFor(site).IncGetptr()
	}
	stateless := r.resolver.Mode() == LayoutModeStateless
	if r.tel != nil {
		if stateless {
			r.histProbe.Observe(0)
		} else {
			r.histProbe.Observe(1)
		}
		r.tel.Emit(telemetry.Event{Kind: telemetry.EvFieldHit, Addr: base, Class: class, Field: int(field)})
	}
	if r.xt != nil {
		res := exectrace.ResCacheHit
		if stateless {
			res = exectrace.ResStateless
		}
		r.xt.Getptr(r.xt.Intern(site), class, int(field), base, int(off), res)
	}
}

// olrMalloc implements the instrumented allocation site: the resolver
// allocates and installs its per-object state (layout record or
// nothing), then the strategy-independent tail arms canaries, tracks
// the object type, and emits the alloc events.
func (r *Runtime) olrMalloc(v *vm.VM, classHash uint64) (int64, error) {
	cls, ok := r.table.ByHash(classHash)
	if !ok {
		if err := r.violate(ViolationBadClass, 0, classHash, nil); err != nil {
			return 0, err
		}
		return 0, nil
	}
	base, l, err := r.resolver.Alloc(v, cls)
	if err != nil {
		return 0, err
	}
	r.allocs++
	r.noteLiveObject()
	v.TrackObject(base, cls.Struct)
	if err := r.armTraps(v, base, l); err != nil {
		return 0, err
	}
	if r.tel != nil {
		r.tel.Emit(telemetry.Event{
			Kind: telemetry.EvAlloc, Addr: base, Size: l.TotalSize,
			Class: classHash, Layout: l.Hash(), Detail: cls.Name(),
		})
	}
	if r.xt != nil {
		r.xt.Alloc(r.xt.Intern(r.curCall.Site()), classHash, base, l.TotalSize, l.Hash(), r.xt.Intern(cls.Name()))
	}
	return int64(base), nil
}

// classInputs is one class's layout-generation input: its members as
// generator fields, its function-pointer count (the entropy report
// needs it), its layout configuration and its stateless slab bound.
type classInputs struct {
	fields  []layout.FieldInfo
	nFptrs  int
	cfg     layout.Config
	maxSize int
}

// inputsOf returns cls's generation inputs, built once per runtime. The
// configuration honors the per-class override map (§IV.B.1's feedback
// loop) in every strategy — norandom/pinned classes stay pinned in
// stateless mode too.
func (r *Runtime) inputsOf(cls *classinfo.Class) *classInputs {
	if in, ok := r.inputs[cls.Hash]; ok {
		return in
	}
	in := &classInputs{fields: make([]layout.FieldInfo, len(cls.Members)), cfg: r.cfg.Layout}
	if over, ok := r.cfg.PerClass[cls.Hash]; ok {
		in.cfg = over
	}
	for i, m := range cls.Members {
		in.fields[i] = layout.FieldInfo{Size: m.Size, Align: m.Align, IsFptr: m.Kind == classinfo.KindFuncPointer}
		if in.fields[i].IsFptr {
			in.nFptrs++
		}
	}
	in.maxSize = layout.MaxSize(in.fields, in.cfg)
	r.inputs[cls.Hash] = in
	return in
}

// armTraps writes fresh canaries into every trap slot.
func (r *Runtime) armTraps(v *vm.VM, base uint64, l *layout.Layout) error {
	for _, s := range l.Slots {
		if !s.Trap {
			continue
		}
		if err := v.Mem.WriteU(base+uint64(s.Offset), 8, r.canary(base, s.Offset)); err != nil {
			return err
		}
	}
	return nil
}

// checkTraps verifies every canary; returns the first corrupted slot
// offset, or -1.
func (r *Runtime) checkTraps(v *vm.VM, base uint64, l *layout.Layout) (int, error) {
	for _, s := range l.Slots {
		if !s.Trap {
			continue
		}
		got, err := v.Mem.ReadU(base+uint64(s.Offset), 8)
		if err != nil {
			return -1, err
		}
		if got != r.canary(base, s.Offset) {
			return s.Offset, nil
		}
	}
	return -1, nil
}

// olrFree implements the instrumented deallocation site. The resolver
// validates the free (bad-free/double-free/UAF classification and the
// booby-trap sweep are strategy-specific), the strategy-independent
// tail emits the free events, then the per-object state is retired and
// the chunk released. AfterFree runs last — the stateless epoch-rekey
// schedule must only ever remap objects that survived this free.
func (r *Runtime) olrFree(v *vm.VM, base uint64) error {
	l, classHash, proceed, err := r.resolver.BeginFree(v, base)
	if err != nil || !proceed {
		return err
	}
	r.frees++
	if l != nil {
		if r.liveObjs > 0 {
			r.liveObjs--
		}
		if r.tel != nil {
			r.tel.Emit(telemetry.Event{Kind: telemetry.EvFree, Addr: base, Class: classHash, Layout: l.Hash()})
		}
		if r.xt != nil {
			r.xt.Free(r.xt.Intern(r.curCall.Site()), classHash, base, l.Hash())
		}
	}
	if err := r.resolver.FinishFree(v, base); err != nil {
		return err
	}
	v.UntrackObject(base)
	if err := v.Heap.Free(base); err != nil {
		return err
	}
	return r.resolver.AfterFree(v)
}

// olrGetptr implements the instrumented member access (Fig. 4's
// olr_getptr(A, 2)): the resolver maps (base, classHash, field) to the
// randomized offset, and emitGetptr — the single trace exit for every
// resolution path — records it. Probe lengths observed inside the
// resolvers use the one canonical bucket vocabulary documented at
// telemetry.ProbeLenBuckets.
func (r *Runtime) olrGetptr(v *vm.VM, base uint64, field int, classHash uint64) (int64, error) {
	r.accesses++
	if r.prof != nil {
		r.profSite().IncGetptr()
	}
	off, res, err := r.resolver.Resolve(v, base, field, classHash)
	if err != nil {
		// Error exits (abort-policy violations, seal failures,
		// out-of-range faults) record nothing: the run dies there, and
		// the bus-level violation record already marks the spot.
		return 0, err
	}
	r.emitGetptr(classHash, field, base, off, res)
	return int64(base + uint64(off)), nil
}

// emitGetptr records one completed olr_getptr resolution on the
// execution trace. Every resolver exit funnels through here, so a new
// strategy cannot miss (or double-emit) a trace record.
func (r *Runtime) emitGetptr(classHash uint64, field int, base uint64, off int, res exectrace.Resolution) {
	if r.xt != nil {
		r.xt.Getptr(r.xt.Intern(r.curCall.Site()), classHash, field, base, off, res)
	}
}

// olrMemcpy implements the instrumented object copy (§IV.A.2); the
// member-wise remap between source and destination layouts is
// strategy-specific. A negative length copies nothing, as the engines'
// plain memcpy does, so hardening stays transparent.
func (r *Runtime) olrMemcpy(v *vm.VM, dst, src uint64, n int, classHash uint64) error {
	r.memcpys++
	if n < 0 {
		n = 0
	}
	return r.resolver.Memcpy(v, dst, src, n, classHash)
}

// layoutFitting picks the layout for a duplicate copy, no larger than
// limit. Under RerandomizeOnCopy it generates a fresh layout, degrading
// the configuration (fewer dummies, no traps, identity) until it fits;
// otherwise it clones the source layout (the cheaper mode of §IV.A.2).
// Returns nil if even the identity layout exceeds limit. A generated
// layout is the runtime's scratch layout (see generateLayout).
func (r *Runtime) layoutFitting(cls *classinfo.Class, srcLayout *layout.Layout, limit int) (*layout.Layout, error) {
	in := r.inputsOf(cls)
	if !r.cfg.RerandomizeOnCopy {
		if srcLayout.TotalSize <= limit {
			return srcLayout, nil
		}
	} else {
		noDummies := in.cfg
		noDummies.MinDummies, noDummies.MaxDummies = 0, 0
		noTraps := noDummies
		noTraps.BoobyTraps = false
		for _, cfg := range []layout.Config{in.cfg, noDummies, noTraps} {
			l, err := r.generateLayout(cls, in, cfg)
			if err != nil {
				return nil, err
			}
			if l.TotalSize <= limit {
				return l, nil
			}
		}
	}
	l, err := r.generateLayout(cls, in, layout.Config{Mode: layout.ModeIdentity})
	if err != nil {
		return nil, err
	}
	if l.TotalSize <= limit {
		return l, nil
	}
	return nil, nil
}

// noteLayoutGen attributes one layout generation to its class: the
// hot-site profiler's per-class counter, the entropy histogram, and the
// EvLayoutGen event. Both strategies funnel through here (the stateless
// resolver also re-derives on memo misses, each a generation).
func (r *Runtime) noteLayoutGen(cls *classinfo.Class, cfg layout.Config, nFptrs int, l *layout.Layout) {
	if r.prof != nil {
		gc, ok := r.profGens[cls.Hash]
		if !ok {
			gc = r.prof.ClassGen(cls.Name())
			r.profGens[cls.Hash] = gc
		}
		gc.Inc()
	}
	if r.tel != nil {
		r.histEntropy.Observe(layout.EntropyBits(len(cls.Members), nFptrs, cfg))
		r.tel.Emit(telemetry.Event{
			Kind: telemetry.EvLayoutGen, Class: cls.Hash, Layout: l.Hash(),
			Size: l.TotalSize, Detail: cls.Name(),
		})
	}
}

// generateLayout generates a fresh layout for cls under cfg into the
// runtime's scratch layout and returns it. The result is valid until
// the next generation: callers intern it or let it go.
func (r *Runtime) generateLayout(cls *classinfo.Class, in *classInputs, cfg layout.Config) (*layout.Layout, error) {
	l := &r.scratch
	if err := layout.GenerateInto(l, in.fields, cfg, r.rng); err != nil {
		return nil, err
	}
	r.noteLayoutGen(cls, cfg, in.nFptrs, l)
	return l, nil
}

func (r *Runtime) copyMemberwise(v *vm.VM, dst uint64, dl *layout.Layout, src uint64, sl *layout.Layout, cls *classinfo.Class) error {
	for i, m := range cls.Members {
		so, err := sl.FieldOffset(i)
		if err != nil {
			return err
		}
		do, err := dl.FieldOffset(i)
		if err != nil {
			return err
		}
		if err := v.Mem.Copy(dst+uint64(do), src+uint64(so), m.Size); err != nil {
			return err
		}
	}
	return nil
}

// copyRandomToStatic writes a randomized source image out to the
// compiler's static layout (untracked destination).
func (r *Runtime) copyRandomToStatic(v *vm.VM, dst, src uint64, sl *layout.Layout, cls *classinfo.Class) error {
	for i, m := range cls.Members {
		so, err := sl.FieldOffset(i)
		if err != nil {
			return err
		}
		if err := v.Mem.Copy(dst+uint64(m.StaticOffset), src+uint64(so), m.Size); err != nil {
			return err
		}
	}
	return nil
}

// copyStaticToRandom writes a static-layout source image into a managed
// destination's randomized layout.
func (r *Runtime) copyStaticToRandom(v *vm.VM, dst uint64, dl *layout.Layout, cls *classinfo.Class, src uint64) error {
	for i, m := range cls.Members {
		do, err := dl.FieldOffset(i)
		if err != nil {
			return err
		}
		if err := v.Mem.Copy(dst+uint64(do), src+uint64(m.StaticOffset), m.Size); err != nil {
			return err
		}
	}
	return nil
}

// olrCheck lets a program (or exploit experiment) force a booby-trap
// sweep of one object; returns 1 if intact, 0 if a trap fired (under
// PolicyWarn) and an error under PolicyAbort.
func (r *Runtime) olrCheck(v *vm.VM, base uint64) (int64, error) {
	return r.resolver.Check(v, base)
}

func (r *Runtime) className(hash uint64) string {
	if cls, ok := r.table.ByHash(hash); ok {
		return cls.Name()
	}
	return fmt.Sprintf("hash %#x", hash)
}
