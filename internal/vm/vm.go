package vm

import (
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"polar/internal/heap"
	"polar/internal/ir"
	"polar/internal/telemetry"
	"polar/internal/telemetry/exectrace"
	"polar/internal/telemetry/profile"
)

// Execution error sentinels.
var (
	ErrFuelExhausted = errors.New("vm: instruction budget exhausted")
	ErrStackOverflow = errors.New("vm: stack overflow")
	ErrUnknownFunc   = errors.New("vm: unknown function")
	ErrDivByZero     = errors.New("vm: integer division by zero")
)

// Stats counts dynamic events for the whole program run.
type Stats struct {
	Instructions uint64
	Allocs       uint64
	Frees        uint64
	Memcpys      uint64
	FieldAccess  uint64 // OpFieldPtr executions (instrumented or not)
	Calls        uint64
	MaxDepth     int
}

// Builtin is a native function callable from IR. Args arrive as resolved
// 64-bit values.
type Builtin func(c *Call) (int64, error)

// Call packages the VM state handed to builtins.
type Call struct {
	VM   *VM
	Name string
	Args []int64
	// RawArgs are the unresolved operands (register identity matters to
	// the POLaR runtime for type info recovery).
	RawArgs []ir.Value

	// fn/blk locate the call instruction for diagnostics (see Site).
	fn  *ir.Func
	blk *ir.Block

	// getptr marks a call from an olr_getptr site, the only calls
	// Memoize may cache, so the zero Call is inert.
	getptr bool
}

// Site returns the instruction site of the call as "@fn.block" (empty
// when unknown). The POLaR runtime stamps violation records with it and
// the hot-site profiler attributes member accesses by it; the string is
// interned once per block in the Program, so repeated resolutions never
// reallocate.
func (c *Call) Site() string {
	if c == nil || c.fn == nil || c.blk == nil {
		return ""
	}
	if c.VM != nil && c.VM.prog != nil {
		if s := c.VM.prog.SiteName(c.blk); s != "" {
			return s
		}
	}
	return "@" + c.fn.Name + "." + c.blk.Name
}

// Arg returns argument i or 0 if absent.
func (c *Call) Arg(i int) int64 {
	if i < 0 || i >= len(c.Args) {
		return 0
	}
	return c.Args[i]
}

// Memoize installs the current olr_getptr resolution into the VM's
// layout cache: the next access with the same (base, field, class) at
// any olr_getptr site, under the same layout generation, skips the
// builtin entirely. The builtin must only call this on clean
// resolutions — a live, correctly-typed object whose offset will stay
// valid until the generation counter next advances. A no-op when the
// call is not an olr_getptr site or no cache is installed.
func (c *Call) Memoize(off int64) {
	if c == nil || !c.getptr || c.VM == nil || c.VM.lc == nil || len(c.Args) < 3 {
		return
	}
	c.VM.lc.Put(uint64(c.Args[0]), uint64(c.Args[2]), int(c.Args[1]), int32(off))
}

const (
	defaultFuel  = 4_000_000_000
	maxCallDepth = 512
	coverageSize = 1 << 16
)

// VM is one execution instance of a Program. A single VM is not safe
// for concurrent use — run one VM per goroutine — but many VMs stamped
// from the same Program may run concurrently.
type VM struct {
	Mod   *ir.Module
	Mem   *Memory
	Heap  *heap.Allocator
	Stats Stats
	// Perf holds engine-strategy counters (inline-cache traffic, fused
	// dispatches). They live outside Stats on purpose: Stats is held to
	// struct equality against the reference engine by the differential
	// suite, while Perf legitimately differs (the reference never fuses,
	// and a taint run never reads the layout cache).
	Perf Perf

	// prog is the shared immutable Program this instance executes.
	prog *Program

	builtins map[string]Builtin

	// taint is the sink of a taint run (nil = not one) and shadow its
	// memory labels; labelPool holds the register label frames every
	// call takes and argLabels the argument labels a call hands its
	// callee (taint.go).
	taint     TaintSink
	shadow    shadowMem
	labelPool [][]byte
	argLabels []byte

	// builtinSlots is the bytecode engine's callee table: index = the
	// Program's compile-time slot for a builtin name, value = the
	// implementation RegisterBuiltin installed (nil = not registered,
	// faults like an unknown function).
	builtinSlots []Builtin

	// lc is the layout cache the dispatch loops read at olr_getptr
	// sites (nil = none; see UseLayoutCache), and icHit replays the
	// runtime's resolver observables for a hit served from it, so the
	// event and trace streams stay identical to a resolver hit.
	lc    *LayoutCache
	icHit func(site string, base uint64, field int64, class uint64, off int64)

	input  []byte
	output []byte
	// inputUse is what the runs so far observed of input; only the
	// input_* builtins write it.
	inputUse InputUse

	fuel     uint64
	fuelLeft uint64

	coverage []byte
	covOn    bool

	stackTop   uint64
	depth      int
	quarantine int
	heapRand   int64

	// objects maps live heap object base -> static struct type for every
	// typed allocation (instrumented or not); used by taint attribution
	// and diagnostics.
	objects map[uint64]*ir.StructType

	framePool   [][]int64
	argvScratch []int64
	callScratch Call

	// instrLog is the instruction tracer (nil unless WithTrace); the
	// line format is owned by telemetry.InstrLog.
	instrLog *telemetry.InstrLog
	// tel is the observability layer (nil = disabled; every emission is
	// guarded by one nil check).
	tel *telemetry.Telemetry

	// prof is the hot-site profiler (nil unless WithProfiler); profSites
	// caches the per-block counter cells so the steady-state cost is one
	// map hit per basic-block entry, not per instruction. The cells are
	// per-instance because the profiler is an instance option; the site
	// strings they key on are interned once in the Program.
	prof      *profile.SiteProfiler
	profSites map[*ir.Block]*profile.SiteCounts

	// xt is the deterministic execution-trace writer (nil unless
	// WithExecTrace). xtBlocks/xtFuncs cache precomputed block-record
	// frame words / interned function ids per instance; the maps are
	// per-instance but the Writer assigns ids in first-use order, which
	// every dispatch loop reaches identically — that is what makes
	// traces byte-comparable across engines. The trace is not an
	// observer: attaching one keeps the fused lowering.
	xt       *exectrace.Writer
	xtBlocks map[*ir.Func][]uint32
	xtFuncs  map[*ir.Func]uint32
}

// xtEnter records entry into fn on the execution trace and returns
// fn's per-block table of precomputed exectrace.BlockFrame words for
// the dispatch loop to index by block number — a slice access plus an
// inlined 4-byte append per block entry instead of a map probe and an
// encoder, which is what keeps tracing inside its <5% budget. First
// entry into a function interns its name and every block site in one
// program-order batch; every dispatch loop enters functions
// identically, so the interning order (part of the determinism
// contract) is too.
func (v *VM) xtEnter(fn *ir.Func) []uint32 {
	id, ok := v.xtFuncs[fn]
	if !ok {
		id = v.xt.Intern("@" + fn.Name)
		v.xtFuncs[fn] = id
	}
	frames, ok := v.xtBlocks[fn]
	if !ok {
		frames = make([]uint32, len(fn.Blocks))
		for i, b := range fn.Blocks {
			frames[i] = exectrace.BlockFrame(v.xt.Intern(v.prog.SiteName(b)))
		}
		v.xtBlocks[fn] = frames
	}
	v.xt.Call(id)
	return frames
}

// Option configures a VM.
type Option func(*VM)

// WithInput sets the untrusted program input (read via input_* builtins).
func WithInput(b []byte) Option {
	return func(v *VM) { v.input = append([]byte(nil), b...) }
}

// WithFuel bounds the number of executed instructions.
func WithFuel(n uint64) Option {
	return func(v *VM) { v.fuel = n }
}

// WithCoverage enables the edge-coverage bitmap (used by the fuzzer).
func WithCoverage() Option {
	return func(v *VM) { v.covOn = true }
}

// WithQuarantine configures the heap quarantine length.
func WithQuarantine(n int) Option {
	return func(v *VM) { v.quarantine = n }
}

// WithHeapRand enables inter-chunk placement randomization in the
// simulated heap (§VII.B's class of defenses; seed 0 disables).
func WithHeapRand(seed int64) Option {
	return func(v *VM) { v.heapRand = seed }
}

// WithTrace streams every executed instruction to w as
// "@fn.block\tinstr" lines, stopping after maxLines (0 = unlimited).
// Tracing is a debugging facility; it slows execution substantially.
// The instance runs observed: callBC writes one line per source
// instruction, stepping fused runs one micro at a time. The stream is
// produced by a telemetry.InstrLog; the text format and this option's
// signature are stable.
func WithTrace(w io.Writer, maxLines int) Option {
	return func(v *VM) { v.instrLog = telemetry.NewInstrLog(w, maxLines) }
}

// WithTelemetry attaches the observability layer: the VM (and the heap
// it creates) emit events and metrics into t. A nil t disables
// telemetry with no overhead beyond a nil check.
func WithTelemetry(t *telemetry.Telemetry) Option {
	return func(v *VM) { v.tel = t }
}

// WithProfiler attaches a hot-site profiler: each "@fn.block" site is
// charged the instructions actually executed in that block — early
// exits (a mid-block ret, a fault, fuel exhaustion) charge only the
// executed prefix, and instructions a callee runs are charged to the
// callee's sites, not the call site. Summed over all
// sites the cycle counts equal Stats.Instructions exactly.
// A nil p disables profiling with no overhead beyond a nil check.
func WithProfiler(p *profile.SiteProfiler) Option {
	return func(v *VM) { v.prof = p }
}

// WithExecTrace attaches a deterministic execution-trace writer: the
// dispatch loop records block entries and calls directly (the trace is
// not an instruction log — block granularity keeps the overhead inside
// the <5% budget), and NewInstance subscribes the writer to the
// telemetry bus (when one is attached) for allocation, fuel-checkpoint
// and violation records. A nil w disables tracing with no overhead beyond
// a nil check. The writer is single-owner, like the VM itself: give
// every concurrently running VM its own writer.
func WithExecTrace(w *exectrace.Writer) Option {
	return func(v *VM) { v.xt = w }
}

// ExecTrace returns the attached execution-trace writer (may be nil).
func (v *VM) ExecTrace() *exectrace.Writer { return v.xt }

// Profiler returns the attached hot-site profiler (may be nil).
func (v *VM) Profiler() *profile.SiteProfiler { return v.prof }

// Telemetry returns the attached observability layer (may be nil).
func (v *VM) Telemetry() *telemetry.Telemetry { return v.tel }

// New prepares a VM for the module: validates it, lays out globals and
// creates the heap. It is the single-run compatibility wrapper over the
// Program/Instance split — callers that execute a module more than once
// should Compile it once and stamp NewInstance per run instead.
func New(m *ir.Module, opts ...Option) (*VM, error) {
	p, err := Compile(m)
	if err != nil {
		return nil, err
	}
	return p.NewInstance(opts...)
}

// RegisterBuiltin installs (or replaces) a native function. The POLaR
// runtime uses this to provide the olr_* ABI. Registration also binds
// the builtin into the callee table (when the compiled module calls the
// name). Registering olr_getptr detaches the layout cache, so a new
// resolver sees every call until a cache is installed for it.
func (v *VM) RegisterBuiltin(name string, fn Builtin) {
	v.builtins[name] = fn
	if idx, ok := v.prog.builtinSlot[name]; ok {
		v.builtinSlots[idx] = fn
	}
	if name == olrGetptrName {
		v.lc, v.icHit = nil, nil
	}
}

// InstallLayoutCache arms the layout cache with a small table of the
// VM's own (SmallCacheSize entries) for an olr_getptr builtin that
// fills it through Call.Memoize: gen is the generation counter its
// entries validate against (advanced whenever any memoized offset may
// have gone stale), and onHit replays the builtin's observables for a
// served hit. A nil gen or onHit detaches the cache.
func (v *VM) InstallLayoutCache(gen *uint64, onHit func(site string, base uint64, field int64, class uint64, off int64)) {
	var c *LayoutCache
	if gen != nil {
		c = NewLayoutCache(SmallCacheSize, gen)
	}
	v.UseLayoutCache(c, onHit)
}

// UseLayoutCache hands the dispatch loops a layout runtime's own
// cache: at every olr_getptr site they probe c first and, on a hit,
// call onHit instead of the builtin. A taint run never reads it, so
// every call runs the builtin. A nil c or onHit detaches the cache.
func (v *VM) UseLayoutCache(c *LayoutCache, onHit func(site string, base uint64, field int64, class uint64, off int64)) {
	if c == nil || onHit == nil {
		c, onHit = nil, nil
	}
	v.lc, v.icHit = c, onHit
}

// cachedGetptr serves an olr_getptr call at a site in blk from the
// layout cache when it holds (base, field, class): it counts the
// lookup in Perf, replays the hit and returns the member address.
// ok=false sends the call on to the builtin.
func (v *VM) cachedGetptr(blk *ir.Block, base uint64, field int64, class uint64) (addr int64, ok bool) {
	off, hit := v.lc.lookup(base, class, int(field))
	if !hit {
		v.Perf.InlineMisses++
		return 0, false
	}
	v.Perf.InlineHits++
	v.icHit(v.prog.SiteName(blk), base, field, class, int64(off))
	return int64(base + uint64(off)), true
}

// Program returns the shared immutable Program this VM executes.
func (v *VM) Program() *Program { return v.prog }

// InputUse returns what the instance's runs observed of its input.
func (v *VM) InputUse() InputUse { return v.inputUse }

// Output returns everything the program printed.
func (v *VM) Output() []byte { return v.output }

// Coverage returns the edge-coverage bitmap (nil unless WithCoverage).
func (v *VM) Coverage() []byte { return v.coverage }

// ObjectType returns the static struct type recorded for a live heap
// object base address.
func (v *VM) ObjectType(base uint64) (*ir.StructType, bool) {
	st, ok := v.objects[base]
	return st, ok
}

// TrackObject records (or re-records) the struct type of a heap object;
// the POLaR runtime calls this from olr_malloc so taint attribution
// keeps working on instrumented binaries.
func (v *VM) TrackObject(base uint64, st *ir.StructType) { v.objects[base] = st }

// UntrackObject removes object tracking at free time.
func (v *VM) UntrackObject(base uint64) { delete(v.objects, base) }

// AppendTrackedBases appends the base addresses of every tracked live
// object to dst in ascending order and returns the extended slice, so a
// caller reusing its buffer allocates nothing. The sort matters: the
// stateless rekey walk emits per-object events, and map iteration order
// must not leak into the event or trace streams (they are
// byte-identical per seed).
func (v *VM) AppendTrackedBases(dst []uint64) []uint64 {
	n := len(dst)
	for base := range v.objects {
		dst = append(dst, base)
	}
	slices.Sort(dst[n:])
	return dst
}

// Run executes @main with the given integer arguments.
func (v *VM) Run(args ...int64) (int64, error) {
	return v.runEntry("main", args)
}

// CallFunc executes an arbitrary module function with integer arguments.
func (v *VM) CallFunc(name string, args ...int64) (int64, error) {
	return v.runEntry(name, args)
}

// runEntry dispatches one top-level execution, bracketing it with
// fuel-checkpoint events when telemetry is attached.
func (v *VM) runEntry(name string, args []int64) (int64, error) {
	if v.tel != nil {
		v.tel.Emit(telemetry.Event{Kind: telemetry.EvFuelCheckpoint, Size: int(v.fuelLeft), Detail: "run-start"})
	}
	ret, err := v.dispatchEntry(name, args)
	if v.tel != nil {
		v.tel.Emit(telemetry.Event{Kind: telemetry.EvFuelCheckpoint, Size: int(v.fuelLeft), Detail: "run-end"})
	}
	return ret, err
}

func (v *VM) dispatchEntry(name string, args []int64) (int64, error) {
	idx, ok := v.prog.funcIdx[name]
	if !ok {
		if name == "main" {
			return 0, ir.ErrNoMain
		}
		return 0, fmt.Errorf("%w: @%s", ErrUnknownFunc, name)
	}
	// Top-level arguments carry no taint, and no branch has been taken.
	ret, _, err := v.callBC(v.prog.bcFuncs[idx], args, nil, 0)
	return ret, err
}

func (v *VM) getFrame(n int) []int64 {
	if l := len(v.framePool); l > 0 {
		fr := v.framePool[l-1]
		v.framePool = v.framePool[:l-1]
		if cap(fr) >= n {
			fr = fr[:n]
			for i := range fr {
				fr[i] = 0
			}
			return fr
		}
	}
	return make([]int64, n)
}

func (v *VM) putFrame(fr []int64) {
	if len(v.framePool) < 64 {
		v.framePool = append(v.framePool, fr)
	}
}

// FuncByHandle resolves a function-pointer handle back to its function.
// Handles are stable pseudo-addresses precomputed at Compile time; they
// live far above the heap so they never collide with data addresses.
func (v *VM) FuncByHandle(h int64) (*ir.Func, bool) {
	idx := (uint64(h) - 0x7f00_0000_0000) / 16
	if uint64(h) < 0x7f00_0000_0000 || int(idx) >= len(v.Mod.Funcs) {
		return nil, false
	}
	return v.Mod.Funcs[idx], true
}

func (v *VM) fault(fn *ir.Func, b *ir.Block, err error) error {
	return fmt.Errorf("@%s.%s: %w", fn.Name, b.Name, err)
}

// allocSize is the byte size of an alloc of n elements (at least one)
// of elem bytes, with the element count it used. A size that overflows
// int fails with heap.ErrOutOfMemory, as a size the heap cannot hold
// does, before the heap carves anything: wrapped, it would carve a
// chunk smaller than the program indexes.
func allocSize(elem int, n int64) (size, count int, err error) {
	count = int(max(n, 1))
	if elem > 0 && count > math.MaxInt/elem {
		return 0, 0, fmt.Errorf("%w: %d elements of %d bytes", heap.ErrOutOfMemory, count, elem)
	}
	return elem * count, count, nil
}

func evalBin(op ir.BinKind, a, b int64) (int64, error) {
	switch op {
	case ir.BinAdd:
		return a + b, nil
	case ir.BinSub:
		return a - b, nil
	case ir.BinMul:
		return a * b, nil
	case ir.BinDiv:
		if b == 0 {
			return 0, ErrDivByZero
		}
		return a / b, nil
	case ir.BinRem:
		if b == 0 {
			return 0, ErrDivByZero
		}
		return a % b, nil
	case ir.BinAnd:
		return a & b, nil
	case ir.BinOr:
		return a | b, nil
	case ir.BinXor:
		return a ^ b, nil
	case ir.BinShl:
		return a << (uint64(b) & 63), nil
	case ir.BinShr:
		return int64(uint64(a) >> (uint64(b) & 63)), nil
	default:
		return 0, fmt.Errorf("vm: bad binop %d", op)
	}
}

func evalFBin(op ir.BinKind, a, b float64) float64 {
	switch op {
	case ir.BinAdd:
		return a + b
	case ir.BinSub:
		return a - b
	case ir.BinMul:
		return a * b
	case ir.BinDiv:
		return a / b
	case ir.BinRem:
		return math.Mod(a, b)
	default:
		return math.NaN()
	}
}

func evalCmp(op ir.CmpKind, a, b int64) int64 {
	var r bool
	switch op {
	case ir.CmpEq:
		r = a == b
	case ir.CmpNe:
		r = a != b
	case ir.CmpLt:
		r = a < b
	case ir.CmpLe:
		r = a <= b
	case ir.CmpGt:
		r = a > b
	case ir.CmpGe:
		r = a >= b
	}
	if r {
		return 1
	}
	return 0
}

func evalFCmp(op ir.CmpKind, a, b float64) int64 {
	var r bool
	switch op {
	case ir.CmpEq:
		r = a == b
	case ir.CmpNe:
		r = a != b
	case ir.CmpLt:
		r = a < b
	case ir.CmpLe:
		r = a <= b
	case ir.CmpGt:
		r = a > b
	case ir.CmpGe:
		r = a >= b
	}
	if r {
		return 1
	}
	return 0
}

// Coverage edges are FNV-1a hashes of (function name, prev block + 1,
// block + 1), truncated to the bitmap's 16-bit index. The name prefix
// is the same for every edge of a function, so the lowering hashes it
// once (bcFunc.edgeSeed) and the dispatch loops finish each edge from
// that seed with two multiplies.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// edgeSeed hashes a function name, rune by rune, into the prefix every
// coverage edge of that function starts from.
func edgeSeed(name string) uint64 {
	h := uint64(fnvOffset64)
	for _, ch := range name {
		h = (h ^ uint64(ch)) * fnvPrime64
	}
	return h
}

// edgeIndex is the coverage-bitmap slot of the edge prev -> cur (prev
// is -1 on function entry) in the function whose edgeSeed is seed.
func edgeIndex(seed uint64, prev, cur int) uint16 {
	h := (seed ^ uint64(uint32(prev+1))) * fnvPrime64
	h = (h ^ uint64(uint32(cur+1))) * fnvPrime64
	return uint16(h)
}
