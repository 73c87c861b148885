package analysis

import (
	"fmt"

	"polar/internal/ir"
)

// This file implements the whole-module abstract interpreter the three
// analysis passes share. The abstraction mirrors the dynamic taint
// engine (internal/taint) closely enough that every class the dynamic
// campaign can mark is also marked statically:
//
//   - Memory is partitioned into REGIONS: one per allocation site
//     (heap alloc and stack local) plus one per module global. A
//     pointer value abstracts to the set of regions it may address
//     plus, when derivable, a constant byte offset into them.
//   - Register facts are flow-sensitive per function (solved with the
//     generic FixedPoint engine); memory facts are flow-insensitive
//     and monotonic — a region accumulates taint, stored pointers and
//     written-field marks for the whole run.
//   - Functions are joined interprocedurally: call sites merge
//     argument facts into the callee's parameter summary, returns
//     merge back, and the per-frame control-taint bit is inherited by
//     callees exactly like the dynamic engine's frame.control.
//
// Taint sources match internal/taint: the input_* builtins. The main
// entry's parameters are additionally treated as untrusted (the static
// analysis cannot know how the host invokes main), which can only add
// classes — recall against the dynamic report is preserved.

// ---------------------------------------------------------------------
// bitset

// bitset is a fixed-width bit vector over region (or block) indexes.
// The zero value (nil) is the empty set and is shared freely; all
// mutating methods require a non-nil receiver sized by newBitset.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) has(i int) bool {
	w := i >> 6
	return w < len(b) && b[w]&(1<<uint(i&63)) != 0
}

// set adds i and reports whether the set changed.
func (b bitset) set(i int) bool {
	w, m := i>>6, uint64(1)<<uint(i&63)
	if b[w]&m != 0 {
		return false
	}
	b[w] |= m
	return true
}

func (b bitset) clear(i int) {
	if w := i >> 6; w < len(b) {
		b[w] &^= 1 << uint(i&63)
	}
}

// or folds o into b and reports whether b grew.
func (b bitset) or(o bitset) bool {
	changed := false
	for i := range o {
		if o[i]&^b[i] != 0 {
			b[i] |= o[i]
			changed = true
		}
	}
	return changed
}

func (b bitset) and(o bitset) {
	for i := range b {
		var w uint64
		if i < len(o) {
			w = o[i]
		}
		b[i] &= w
	}
}

func (b bitset) clone() bitset {
	if b == nil {
		return nil
	}
	out := make(bitset, len(b))
	copy(out, b)
	return out
}

func (b bitset) empty() bool {
	for _, w := range b {
		if w != 0 {
			return false
		}
	}
	return true
}

func (b bitset) eq(o bitset) bool {
	n := len(b)
	if len(o) > n {
		n = len(o)
	}
	for i := 0; i < n; i++ {
		var x, y uint64
		if i < len(b) {
			x = b[i]
		}
		if i < len(o) {
			y = o[i]
		}
		if x != y {
			return false
		}
	}
	return true
}

func (b bitset) count() int {
	n := 0
	for _, w := range b {
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}

func (b bitset) subsetOf(o bitset) bool {
	for i, w := range b {
		var y uint64
		if i < len(o) {
			y = o[i]
		}
		if w&^y != 0 {
			return false
		}
	}
	return true
}

func (b bitset) intersects(o bitset) bool {
	n := len(b)
	if len(o) < n {
		n = len(o)
	}
	for i := 0; i < n; i++ {
		if b[i]&o[i] != 0 {
			return true
		}
	}
	return false
}

// forEach visits the members in ascending order.
func (b bitset) forEach(f func(int)) {
	for wi, w := range b {
		for ; w != 0; w &= w - 1 {
			bit := 0
			for t := w & (-w); t > 1; t >>= 1 {
				bit++
			}
			f(wi*64 + bit)
		}
	}
}

// single returns the sole member, or -1 if the set is not a singleton.
func (b bitset) single() int {
	found := -1
	for wi, w := range b {
		if w == 0 {
			continue
		}
		if found != -1 || w&(w-1) != 0 {
			return -1
		}
		bit := 0
		for t := w & (-w); t > 1; t >>= 1 {
			bit++
		}
		found = wi*64 + bit
	}
	return found
}

// ---------------------------------------------------------------------
// regions

type regionKind int

const (
	regHeap regionKind = iota + 1 // heap allocation site
	regStack
	regGlobal
)

// region is one abstract memory object: an allocation site under one
// calling context, or a module global. Heap cloning means pointers
// derived from the same syntactic site in different contexts get
// DIFFERENT regions; the context-insensitive k=0 mode degenerates to
// one region per site.
type region struct {
	kind   regionKind
	class  *ir.StructType // non-nil for struct allocations
	size   int            // byte size when statically known, else -1
	fn     string         // owning function, for alloc sites
	site   ir.SiteRef     // alloc instruction, for alloc sites
	ctx    ctxID          // allocating context, for alloc sites
	global string
}

func (r *region) describe() string {
	switch r.kind {
	case regGlobal:
		return "global @" + r.global
	case regStack:
		return fmt.Sprintf("local at @%s #%d.%d%s", r.fn, r.site.Block, r.site.Index, r.classSuffix())
	default:
		return fmt.Sprintf("alloc at @%s #%d.%d%s", r.fn, r.site.Block, r.site.Index, r.classSuffix())
	}
}

func (r *region) classSuffix() string {
	if r.class != nil {
		return " (%" + r.class.Name + ")"
	}
	return ""
}

// ---------------------------------------------------------------------
// abstract values and register facts

const offUnknown = -1

// absVal abstracts one register: may the value carry input taint, and
// — when it is used as an address — which regions may it point into,
// at which constant byte offset (offUnknown when not derivable).
type absVal struct {
	taint bool
	off   int
	pts   bitset
}

func (a absVal) eq(b absVal) bool {
	return a.taint == b.taint && a.off == b.off && a.pts.eq(b.pts)
}

// joinVal is the lattice join; it is commutative and idempotent. An
// offset survives only where both sides agree on it, except that a
// value pointing nowhere adds nothing to one that points somewhere.
// Inputs are treated as immutable; the result may alias an input's pts
// set.
func joinVal(a, b absVal) absVal {
	out := absVal{taint: a.taint || b.taint, off: a.off}
	if a.off != b.off {
		out.off = offUnknown
	}
	switch {
	case a.pts.empty() && b.pts.empty():
	case a.pts.empty():
		out.pts, out.off = b.pts, b.off
	case b.pts.empty():
		out.pts, out.off = a.pts, a.off
	case a.pts.eq(b.pts):
		out.pts = a.pts
	default:
		u := a.pts.clone()
		u.or(b.pts)
		out.pts = u
	}
	return out
}

// regFacts is the per-program-point fact: one absVal per register plus
// the frame's accumulated control-taint bit.
type regFacts struct {
	regs []absVal
	ctl  bool
}

func (fx *regFacts) clone() *regFacts {
	out := &regFacts{regs: make([]absVal, len(fx.regs)), ctl: fx.ctl}
	copy(out.regs, fx.regs)
	return out
}

func factsEq(a, b *regFacts) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.ctl != b.ctl || len(a.regs) != len(b.regs) {
		return false
	}
	for i := range a.regs {
		if !a.regs[i].eq(b.regs[i]) {
			return false
		}
	}
	return true
}

func joinFacts(a, b *regFacts) *regFacts {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	out := &regFacts{regs: make([]absVal, len(a.regs)), ctl: a.ctl || b.ctl}
	for i := range a.regs {
		out.regs[i] = joinVal(a.regs[i], b.regs[i])
	}
	return out
}

// ---------------------------------------------------------------------
// the interpreter

// instrCtx keys a per-context fact about one instruction (an alloc
// site's cloned region).
type instrCtx struct {
	in  *ir.Instr
	ctx ctxID
}

type interp struct {
	mi   *ModuleInfo
	ctxs *ctxTable

	regions     []*region
	instrRegion map[instrCtx]int
	globalReg   map[string]int

	// Flow-insensitive, monotonic memory state.
	regTaint  []bool   // some byte of the region may be tainted
	regFieldT [][]bool // class regions: per-field may-taint
	regFieldW [][]bool // class regions: per-field ever-written
	regPts    []bitset // pointers that may be stored in the region

	// Interprocedural summaries, one per (function, context).
	params map[fnCtx][]absVal
	rets   map[fnCtx]absVal
	ctlIn  map[fnCtx]bool

	// Class verdicts (the static TaintClass output).
	classContent map[string]bool
	classAlloc   map[string]bool
	classFree    map[string]bool
	classFields  map[string]map[int]bool

	// Converged per-block entry facts, per (function, context).
	blockIn map[fnCtx][]*regFacts

	// version counts monotonic state growth; the outer fixpoint stops
	// on a sweep that leaves it unchanged.
	version int
}

func newInterp(mi *ModuleInfo, opts Options) *interp {
	k := opts.ContextK
	switch {
	case k == 0:
		k = defaultContextK
	case k < 0: // ContextInsensitive
		k = 0
	}
	ip := &interp{
		mi:           mi,
		ctxs:         buildContexts(mi.M, k, opts.MaxContexts),
		instrRegion:  make(map[instrCtx]int),
		globalReg:    make(map[string]int),
		params:       make(map[fnCtx][]absVal),
		rets:         make(map[fnCtx]absVal),
		ctlIn:        make(map[fnCtx]bool),
		classContent: make(map[string]bool),
		classAlloc:   make(map[string]bool),
		classFree:    make(map[string]bool),
		classFields:  make(map[string]map[int]bool),
		blockIn:      make(map[fnCtx][]*regFacts),
	}
	for _, f := range mi.M.Funcs {
		for bi, blk := range f.Blocks {
			for ii := range blk.Instrs {
				in := &blk.Instrs[ii]
				if in.Op != ir.OpAlloc && in.Op != ir.OpLocal {
					continue
				}
				// Heap cloning: one region per (site, calling context).
				for _, cx := range ip.ctxs.contextsOf(f.Name) {
					r := &region{fn: f.Name, site: ir.SiteRef{Block: bi, Index: ii}, ctx: cx, class: in.Struct}
					if in.Op == ir.OpAlloc {
						r.kind = regHeap
						r.size = in.Type.Size()
						if len(in.Args) == 1 { // alloc N instances
							if c, ok := constOf(in.Args[0]); ok && c > 0 {
								r.size *= int(c)
							} else {
								r.size = -1
							}
						}
					} else {
						r.kind = regStack
						r.size = in.Type.Size()
					}
					ip.instrRegion[instrCtx{in, cx}] = len(ip.regions)
					ip.regions = append(ip.regions, r)
				}
			}
		}
	}
	for _, g := range mi.M.Globals {
		ip.globalReg[g.Name] = len(ip.regions)
		ip.regions = append(ip.regions, &region{kind: regGlobal, global: g.Name, size: g.Size})
	}
	n := len(ip.regions)
	ip.regTaint = make([]bool, n)
	ip.regFieldT = make([][]bool, n)
	ip.regFieldW = make([][]bool, n)
	ip.regPts = make([]bitset, n)
	for i, r := range ip.regions {
		if r.class != nil {
			ip.regFieldT[i] = make([]bool, len(r.class.Fields))
			ip.regFieldW[i] = make([]bool, len(r.class.Fields))
		}
		ip.regPts[i] = newBitset(n)
	}
	// Seed the taint sources: the entry function's parameters, in every
	// context main is analyzed under (the static analysis cannot know
	// how the host invokes main).
	for _, f := range mi.M.Funcs {
		for _, cx := range ip.ctxs.contextsOf(f.Name) {
			ps := make([]absVal, len(f.Params))
			if f.Name == "main" {
				for i := range ps {
					ps[i].taint = true
				}
			}
			ip.params[fnCtx{f.Name, cx}] = ps
		}
	}
	return ip
}

func constOf(v ir.Value) (int64, bool) {
	if v.Kind == ir.ValConst {
		return v.Int, true
	}
	return 0, false
}

// run sweeps all (function, context) units in module order until one
// sweep changes nothing, and reports the sweeps it took and whether it
// converged. Memory, summary and class state only ever grow, so the
// fixpoint exists; sweepCap is a safety valve against hostile IR that
// tests require no shipped or fuzzed module to reach.
func (ip *interp) run() (sweeps int, converged bool) {
	for sweeps < ip.sweepCap() {
		sweeps++
		before := ip.version
		factsChanged := false
		for _, fi := range ip.mi.Funcs {
			for _, cx := range ip.ctxs.contextsOf(fi.Fn.Name) {
				if ip.solveFunc(fi, cx) {
					factsChanged = true
				}
			}
		}
		if ip.version == before && !factsChanged {
			return sweeps, true
		}
	}
	return sweeps, false
}

// sweepCap bounds run's sweeps, scaled with the module since summary
// chains traverse context-cloned units.
func (ip *interp) sweepCap() int { return 64 + 4*len(ip.mi.Funcs) }

// solveFunc runs the flow-sensitive register analysis for one function
// under one calling context, against the current memory/summary state,
// and stores the per-block entry facts. Reports whether any stored fact
// changed.
func (ip *interp) solveFunc(fi *FuncInfo, cx ctxID) bool {
	f := fi.Fn
	key := fnCtx{f.Name, cx}
	boundary := &regFacts{regs: make([]absVal, f.NumRegs), ctl: ip.ctlIn[key]}
	copy(boundary.regs, ip.params[key])
	in, _ := FixedPoint(fi, Problem[*regFacts]{
		Dir:      Forward,
		Boundary: boundary,
		Init:     nil,
		Meet:     joinFacts,
		Transfer: func(b int, in *regFacts) *regFacts {
			if in == nil {
				return nil
			}
			fx := in.clone()
			for ii := range f.Blocks[b].Instrs {
				ip.step(f, cx, &f.Blocks[b].Instrs[ii], fx)
			}
			return fx
		},
		Equal: factsEq,
	})
	old := ip.blockIn[key]
	changed := old == nil
	for b := range in {
		if old != nil && !factsEq(old[b], in[b]) {
			changed = true
		}
	}
	ip.blockIn[key] = in
	return changed
}

// replay walks every reachable block of fi under context cx with the
// converged facts, invoking visit with the fact state in force BEFORE
// each instruction. The passes build their reports on top of this.
func (ip *interp) replay(fi *FuncInfo, cx ctxID, visit func(b, i int, in *ir.Instr, fx *regFacts)) {
	f := fi.Fn
	blockIn := ip.blockIn[fnCtx{f.Name, cx}]
	if blockIn == nil {
		return
	}
	for _, b := range fi.CFG.ReversePostorder() {
		if blockIn[b] == nil {
			continue
		}
		fx := blockIn[b].clone()
		for ii := range f.Blocks[b].Instrs {
			in := &f.Blocks[b].Instrs[ii]
			visit(b, ii, in, fx)
			ip.step(f, cx, in, fx)
		}
	}
}

// val evaluates an operand under the current facts.
func (ip *interp) val(fx *regFacts, v ir.Value) absVal {
	switch v.Kind {
	case ir.ValReg:
		if v.Reg >= 0 && v.Reg < len(fx.regs) {
			return fx.regs[v.Reg]
		}
	case ir.ValGlobal:
		if ri, ok := ip.globalReg[v.Sym]; ok {
			pts := newBitset(len(ip.regions))
			pts.set(ri)
			return absVal{pts: pts, off: 0}
		}
	}
	return absVal{}
}

func (ip *interp) setReg(fx *regFacts, dest int, v absVal) {
	if dest >= 0 && dest < len(fx.regs) {
		fx.regs[dest] = v
	}
}

// step applies one instruction's transfer function under context cx:
// updates fx's register facts and folds memory effects into the global
// state.
func (ip *interp) step(f *ir.Func, cx ctxID, in *ir.Instr, fx *regFacts) {
	switch in.Op {
	case ir.OpAlloc, ir.OpLocal:
		pts := newBitset(len(ip.regions))
		if ri, ok := ip.instrRegion[instrCtx{in, cx}]; ok {
			pts.set(ri)
		}
		ip.setReg(fx, in.Dest, absVal{pts: pts, off: 0})
		if in.Op == ir.OpAlloc && in.Struct != nil && fx.ctl {
			ip.markClassLifecycle(ip.classAlloc, in.Struct.Name)
		}
	case ir.OpFree:
		if fx.ctl {
			av := ip.val(fx, in.Args[0])
			av.pts.forEach(func(ri int) {
				r := ip.regions[ri]
				if r.kind == regHeap && r.class != nil {
					ip.markClassLifecycle(ip.classFree, r.class.Name)
				}
			})
		}
	case ir.OpLoad:
		av := ip.val(fx, in.Args[0])
		ip.setReg(fx, in.Dest, ip.loadFrom(av, in.Type.Size()))
	case ir.OpStore:
		sv := ip.val(fx, in.Args[0])
		av := ip.val(fx, in.Args[1])
		ip.writeTo(av, in.Type.Size(), sv)
	case ir.OpMemcpy:
		dst := ip.val(fx, in.Args[0])
		src := ip.val(fx, in.Args[1])
		n := -1
		if c, ok := constOf(in.Args[2]); ok {
			n = int(c)
		}
		loaded := ip.loadFrom(src, n)
		ip.writeTo(dst, n, loaded)
	case ir.OpMemset:
		// The dynamic engine clears labels on constant fills; the
		// static memory state cannot shrink, so a memset only marks
		// when the fill byte itself is tainted.
		dst := ip.val(fx, in.Args[0])
		fill := ip.val(fx, in.Args[1])
		n := -1
		if c, ok := constOf(in.Args[2]); ok {
			n = int(c)
		}
		ip.writeTo(dst, n, absVal{taint: fill.taint})
	case ir.OpFieldPtr:
		base := ip.val(fx, in.Args[0])
		out := absVal{taint: base.taint, pts: base.pts, off: offUnknown}
		if in.Struct != nil && in.Field >= 0 && in.Field < len(in.Struct.Fields) {
			out.off = in.Struct.Offset(in.Field)
		}
		ip.setReg(fx, in.Dest, out)
	case ir.OpElemPtr:
		base := ip.val(fx, in.Args[0])
		out := absVal{taint: base.taint, pts: base.pts, off: offUnknown}
		if c, ok := constOf(in.Args[1]); ok && base.off != offUnknown {
			out.off = base.off + int(c)*in.Type.Size()
		}
		ip.setReg(fx, in.Dest, out)
	case ir.OpPtrAdd:
		base := ip.val(fx, in.Args[0])
		out := absVal{taint: base.taint, pts: base.pts, off: offUnknown}
		if c, ok := constOf(in.Args[1]); ok && base.off != offUnknown {
			out.off = base.off + int(c)
		}
		ip.setReg(fx, in.Dest, out)
	case ir.OpBin, ir.OpFBin, ir.OpCmp, ir.OpFCmp:
		a := ip.val(fx, in.Args[0])
		b := ip.val(fx, in.Args[1])
		out := absVal{taint: a.taint || b.taint, off: offUnknown}
		// Integer arithmetic on a pointer keeps the base's region set
		// (mirrors PtrDerive keeping the base label).
		switch {
		case !a.pts.empty() && b.pts.empty():
			out.pts = a.pts
		case a.pts.empty() && !b.pts.empty():
			out.pts = b.pts
		case !a.pts.empty():
			u := a.pts.clone()
			u.or(b.pts)
			out.pts = u
		}
		ip.setReg(fx, in.Dest, out)
	case ir.OpItoF, ir.OpFtoI, ir.OpMov:
		ip.setReg(fx, in.Dest, ip.val(fx, in.Args[0]))
	case ir.OpCondBr:
		if ip.val(fx, in.Args[0]).taint {
			fx.ctl = true
		}
	case ir.OpCall:
		ip.stepCall(f, cx, in, fx)
	case ir.OpRet:
		if len(in.Args) == 1 {
			key := fnCtx{f.Name, cx}
			old := ip.rets[key]
			nv := joinVal(old, ip.val(fx, in.Args[0]))
			if !nv.eq(old) {
				ip.rets[key] = nv
				ip.version++
			}
		}
	}
}

func (ip *interp) stepCall(f *ir.Func, cx ctxID, in *ir.Instr, fx *regFacts) {
	callee := ip.mi.M.Func(in.Callee)
	if callee == nil { // builtin, resolved by the VM
		switch in.Callee {
		case "input_read":
			// input_read(dst, off, n): tainted bytes land at dst.
			dst := ip.val(fx, in.Args[0])
			n := -1
			if len(in.Args) == 3 {
				if c, ok := constOf(in.Args[2]); ok {
					n = int(c)
				}
			}
			ip.writeTo(dst, n, absVal{taint: true})
			ip.setReg(fx, in.Dest, absVal{taint: true})
		case "input_len", "input_byte":
			ip.setReg(fx, in.Dest, absVal{taint: true})
		default:
			// Like the dynamic hook: result = union of argument labels.
			out := absVal{}
			for _, a := range in.Args {
				out.taint = out.taint || ip.val(fx, a).taint
			}
			ip.setReg(fx, in.Dest, out)
		}
		return
	}
	// Module call: join arguments into the callee's parameter summary
	// UNDER THE EXTENDED CONTEXT, inherit control taint, read back that
	// context's return summary. This is the heap-cloning step: distinct
	// callers stop sharing one merged summary.
	key := fnCtx{callee.Name, ip.ctxs.calleeCtx(cx, in)}
	ps := ip.params[key]
	for i := range ps {
		if i >= len(in.Args) {
			break
		}
		nv := joinVal(ps[i], ip.val(fx, in.Args[i]))
		if !nv.eq(ps[i]) {
			ps[i] = nv
			ip.version++
		}
	}
	if fx.ctl && !ip.ctlIn[key] {
		ip.ctlIn[key] = true
		ip.version++
	}
	ip.setReg(fx, in.Dest, ip.rets[key])
}

// loadFrom abstracts a read of size bytes through pointer av: the
// result carries any taint the addressed range may hold plus every
// pointer any addressed region may store. size -1 means unknown.
func (ip *interp) loadFrom(av absVal, size int) absVal {
	if av.pts.empty() {
		// Unknown target (forged address): fall back to the pointer's
		// own taint so data cannot silently launder through it.
		return absVal{taint: av.taint}
	}
	out := absVal{off: offUnknown}
	av.pts.forEach(func(ri int) {
		if ip.rangeTainted(ri, av.off, size) {
			out.taint = true
		}
		if !ip.regPts[ri].empty() {
			if out.pts == nil {
				out.pts = newBitset(len(ip.regions))
			}
			out.pts.or(ip.regPts[ri])
		}
	})
	return out
}

// writeTo abstracts a write of size bytes of value sv through pointer
// av (size -1 = unknown).
func (ip *interp) writeTo(av absVal, size int, sv absVal) {
	av.pts.forEach(func(ri int) {
		ip.markWrite(ri, av.off, size, sv)
	})
}

// fieldRange maps a byte range of a class region to field indexes
// [lo, hi); off -1 or n -1 selects all fields.
func fieldRange(st *ir.StructType, off, n int) (lo, hi int) {
	if off < 0 || n < 0 {
		return 0, len(st.Fields)
	}
	lo = -1
	for i, fd := range st.Fields {
		fo := st.Offset(i)
		if fo+fd.Type.Size() <= off || fo >= off+n {
			continue
		}
		if lo == -1 {
			lo = i
		}
		hi = i + 1
	}
	if lo == -1 {
		return 0, 0
	}
	return lo, hi
}

func (ip *interp) rangeTainted(ri, off, n int) bool {
	r := ip.regions[ri]
	if r.class == nil || off < 0 || n < 0 {
		return ip.regTaint[ri]
	}
	lo, hi := fieldRange(r.class, off, n)
	for i := lo; i < hi; i++ {
		if ip.regFieldT[ri][i] {
			return true
		}
	}
	return false
}

// markWrite records sv landing at [off, off+n) of region ri: written
// fields, taint and stored pointers, and the class content verdict.
func (ip *interp) markWrite(ri, off, n int, sv absVal) {
	r := ip.regions[ri]
	if !sv.pts.empty() && ip.regPts[ri].or(sv.pts) {
		ip.version++
	}
	if r.class != nil {
		lo, hi := fieldRange(r.class, off, n)
		for i := lo; i < hi; i++ {
			if !ip.regFieldW[ri][i] {
				ip.regFieldW[ri][i] = true
				ip.version++
			}
			if sv.taint && !ip.regFieldT[ri][i] {
				ip.regFieldT[ri][i] = true
				ip.version++
			}
		}
	}
	if !sv.taint {
		return
	}
	if !ip.regTaint[ri] {
		ip.regTaint[ri] = true
		ip.version++
	}
	// Content attribution follows the dynamic engine: only live heap
	// objects with a known class are attributed.
	if r.kind == regHeap && r.class != nil {
		if !ip.classContent[r.class.Name] {
			ip.classContent[r.class.Name] = true
			ip.version++
		}
		lo, hi := fieldRange(r.class, off, n)
		fs := ip.classFields[r.class.Name]
		if fs == nil {
			fs = make(map[int]bool)
			ip.classFields[r.class.Name] = fs
		}
		for i := lo; i < hi; i++ {
			if !fs[i] {
				fs[i] = true
				ip.version++
			}
		}
	}
}

func (ip *interp) markClassLifecycle(m map[string]bool, class string) {
	if !m[class] {
		m[class] = true
		ip.version++
	}
}
