package vm

import (
	"errors"
	"fmt"
	"math"

	"polar/internal/ir"
	"polar/internal/telemetry"
	"polar/internal/telemetry/profile"
)

// This file is the bytecode engine's one dispatch loop, callBC, for
// every run: plain, hardened, traced, taint runs and runs with the
// instruction log attached. It executes the lowered form produced in
// lower.go and is semantically bit-identical to the reference
// tree-walker (reference_test.go): same Stats at every fuel value, same
// error strings at the same sites, same telemetry events, same coverage
// edges, same violation records out of the POLaR runtime, same taint
// reports and instruction log. The differential suites in this package
// hold it to that contract.
//
// Straight-line code has one form, the bcFused micro-op run (a lone
// load, store or branch is a run of one micro), so its semantics live in
// two switches: the kernel's (runFused) and the stepper's (stepMicros).
// callBC's own switch holds only the instructions that touch the heap,
// the stack, calls or returns, and every branch is taken in its bcFused
// case.
//
// The speed comes from work moved to compile time (operand kinds, global
// addresses, func handles, field offsets, load widths, callee binding)
// plus three dynamic techniques:
//
//   - Batched accounting: when the remaining fuel covers a whole block,
//     fuel and the instruction counter are charged once at block entry.
//     Early exits (ret, fault, propagated error) refund the unexecuted
//     suffix using the precomputed wTo prefix weights, and a call
//     un-batches the suffix around the callee so fuel exhaustion surfaces
//     at the exact instruction the tree-walker reports.
//   - The fused-run kernel: bcFused micro-op runs execute in runFused, a
//     small function of its own whose fast path makes no calls. A micro
//     that needs one (a page-cache miss, a sub-word store, a zero
//     divisor, a float rem) returns to callBC, which runs it through
//     stepMicros and re-enters the kernel. A run dispatches once but
//     accounts as its micro count; at a fuel boundary its affordable
//     prefix executes alone (fuelOut), so the cutoff is
//     indistinguishable from the tree-walker's.
//   - Block chaining: at a taken branch the kernel enters the target
//     itself when the target is one fused run ending in its terminator,
//     no profiler is attached and the fuel covers the whole target. It
//     does the block-loop top's work inline (trace frame, coverage edge,
//     batched charge, fused-dispatch count), so a hot loop of such
//     blocks never returns to the block loop.
//
// Observed runs — taint runs (WithTaint) and runs with the instruction
// log (WithTrace) — run the same loop and the same accounting; callBC
// reads the sink and the log once per call, and the cases that compute
// a value carry the observers' work behind those two locals. Their
// fused runs go through stepMicros, one micro at a time, and neither
// call the kernel nor chain.
//
// The instruction log writes one line per source instruction, before it
// executes, at the points and in the order of the reference
// tree-walker: a fused run writes one line per micro (logSource).
//
// A taint run propagates DFSan's rules inline, in the case that computes
// the value: a one-byte label per register (lbl, indexed like regs), a
// control label per frame (ctl, ORed from every branch condition and
// inherited by callees) and the shadow memory (taint.go). The sink hears
// only of tainted bytes landing in a typed heap object and of objects
// allocated or freed under tainted control. Every run keeps a label
// frame and writes the labels of the values it computes outside the
// kernel, without a branch; only shadow memory and the input builtins
// set a label, and those act in a taint run only, so every other run's
// labels stay 0 and the kernel need not write them. A taint run never
// reads the layout cache, so every olr_getptr runs its builtin.

var errFellOffBlock = errors.New("vm: fell off block end")

// logSource writes the log line of the sub-th source instruction of the
// lowered instruction at pc (micro sub of a fused run, 0 otherwise).
// Lowering keeps source order and an instruction's weight counts its
// source instructions, so the line's instruction sits at the block
// weight before pc, plus sub.
func logSource(log *telemetry.InstrLog, f *bcFunc, bb *bcBlock, pc int32, sub int) {
	in := &bb.irb.Instrs[int(f.wTo[pc]-f.wTo[bb.start])+sub]
	log.Emit(f.fn.Name, bb.irb.Name, ir.FormatInstr(f.fn, in))
}

// bcExitErr settles block accounting on an early error exit: the
// instruction at pc is priced in full (count-then-execute, matching the
// tree-walker), the unexecuted batched suffix is refunded, and the
// profiler is charged for what actually ran.
func (v *VM) bcExitErr(f *bcFunc, bb *bcBlock, pc int32, charged uint64, psc *profile.SiteCounts, err error) error {
	return v.bcExitErrAt(f, bb, pc, f.code[pc].weight(), charged, psc, err)
}

// bcExitErrAt is bcExitErr for an exit partway through a fused run: sub
// micro-ops of the instruction at pc were counted (the faulting micro
// included, count-then-execute per micro), the rest of the run and the
// batched suffix are refunded.
func (v *VM) bcExitErrAt(f *bcFunc, bb *bcBlock, pc int32, sub uint32, charged uint64, psc *profile.SiteCounts, err error) error {
	actual := f.executedThroughSub(bb, pc, sub)
	if refund := charged - actual; refund != 0 {
		v.fuelLeft += refund
		v.Stats.Instructions -= refund
	}
	if psc != nil && actual != 0 {
		psc.AddCycles(actual)
	}
	return err
}

// fuelOut ends a call whose remaining fuel cannot cover the instruction
// at pc, exactly as the tree-walker would: it executes the fuelLeft
// source instructions the fuel affords — a prefix of a fused run, the
// only instruction that weighs more than 1 — and then fails the fuel
// check, or faults mid-prefix with the prefix charged
// (count-then-execute per micro). charged is what the block has charged
// before pc.
func (v *VM) fuelOut(f *bcFunc, bb *bcBlock, pc int32, regs []int64, lbl []byte, charged uint64, psc *profile.SiteCounts) error {
	if k := v.fuelLeft; k > 0 {
		v.fuelLeft = 0
		v.Stats.Instructions += k
		charged += k
		if _, _, mi, err := v.stepMicros(f, bb, pc, 0, int(k), regs, lbl); err != nil {
			return v.bcExitErrAt(f, bb, pc, uint32(mi+1), charged, psc, v.fault(f.fn, bb.irb, err))
		}
	}
	if psc != nil && charged != 0 {
		psc.AddCycles(charged)
	}
	return fmt.Errorf("%w in @%s.%s", ErrFuelExhausted, f.fn.Name, bb.irb.Name)
}

// stepMicros executes micros [lo, hi) of the fused run at pc one at a
// time, each with its label rule and, in a logged run, its log line
// first. It runs an observed run's whole fused runs, the
// fuel-affordable prefix of any run (fuelOut) and the micro runFused
// hands back (fusedStep); a prefix is strictly shorter than its run and
// the kernel hands back no terminator, so only an observed run reaches
// one. It returns the block a terminator micro chose (-1 when none ran)
// with the label of its condition, and on a fault the faulting micro's
// index with the error.
//
// A micro reads the labels of only the operands its op uses, because an
// unused operand aliases register 0 (poolMicroConstants); pooled
// constant slots are never written, so their labels stay 0.
func (v *VM) stepMicros(f *bcFunc, bb *bcBlock, pc int32, lo, hi int, regs []int64, lbl []byte) (int, byte, int, error) {
	// Read once, so every per-micro check below tests a local.
	sink, log := v.taint != nil, v.instrLog
	mem := v.Mem
	micro := f.code[pc].micro
	for mi := lo; mi < hi; mi++ {
		m := &micro[mi]
		if log != nil {
			logSource(log, f, bb, pc, mi)
		}
		// av is read before the micro writes its destination, so a
		// load's label comes from the address it read.
		av := regs[m.a]
		switch m.op {
		case mcBin:
			// Only the kinds specializeMicro left general reach here:
			// div and rem, which fault on zero.
			r, err := evalBin(ir.BinKind(m.kind), av, regs[m.b])
			if err != nil {
				return -1, 0, mi, err
			}
			regs[m.dest] = r
			lbl[m.dest] = lbl[m.a] | lbl[m.b]
		case mcLoad:
			u, ok := mem.readFast(uint64(av), m.size)
			if !ok {
				var err error
				if u, err = mem.ReadU(uint64(av), int(m.size)); err != nil {
					return -1, 0, mi, err
				}
			}
			if s := m.signShift; s != 0 {
				regs[m.dest] = int64(u<<s) >> s
			} else {
				regs[m.dest] = int64(u)
			}
			if sink {
				lbl[m.dest] = v.shadow.rangeOr(uint64(av), int(m.size))
			}
		case mcStore:
			bv := regs[m.b]
			if err := mem.WriteU(uint64(bv), int(m.size), uint64(av)); err != nil {
				return -1, 0, mi, err
			}
			if sink {
				v.taintStore(uint64(bv), int(m.size), lbl[m.a])
			}
		case mcFieldPtr:
			regs[m.dest] = int64(uint64(av) + uint64(m.off))
			v.Stats.FieldAccess++
			lbl[m.dest] = lbl[m.a]
		case mcElemPtr:
			regs[m.dest] = int64(uint64(av) + uint64(regs[m.b])*uint64(m.size))
			lbl[m.dest] = lbl[m.a]
		case mcPtrAdd:
			regs[m.dest] = int64(uint64(av) + uint64(regs[m.b]))
			lbl[m.dest] = lbl[m.a]
		case mcCmp:
			regs[m.dest] = evalCmp(ir.CmpKind(m.kind), av, regs[m.b])
			lbl[m.dest] = lbl[m.a] | lbl[m.b]
		case mcFBin:
			fa := math.Float64frombits(uint64(av))
			fb := math.Float64frombits(uint64(regs[m.b]))
			regs[m.dest] = int64(math.Float64bits(evalFBin(ir.BinKind(m.kind), fa, fb)))
			lbl[m.dest] = lbl[m.a] | lbl[m.b]
		case mcFCmp:
			fa := math.Float64frombits(uint64(av))
			fb := math.Float64frombits(uint64(regs[m.b]))
			regs[m.dest] = evalFCmp(ir.CmpKind(m.kind), fa, fb)
			lbl[m.dest] = lbl[m.a] | lbl[m.b]
		case mcItoF:
			regs[m.dest] = int64(math.Float64bits(float64(av)))
			lbl[m.dest] = lbl[m.a]
		case mcFtoI:
			regs[m.dest] = int64(math.Float64frombits(uint64(av)))
			lbl[m.dest] = lbl[m.a]
		case mcMov:
			regs[m.dest] = av
			lbl[m.dest] = lbl[m.a]
		case mcAdd:
			regs[m.dest] = av + regs[m.b]
			lbl[m.dest] = lbl[m.a] | lbl[m.b]
		case mcSub:
			regs[m.dest] = av - regs[m.b]
			lbl[m.dest] = lbl[m.a] | lbl[m.b]
		case mcMul:
			regs[m.dest] = av * regs[m.b]
			lbl[m.dest] = lbl[m.a] | lbl[m.b]
		case mcAnd:
			regs[m.dest] = av & regs[m.b]
			lbl[m.dest] = lbl[m.a] | lbl[m.b]
		case mcOr:
			regs[m.dest] = av | regs[m.b]
			lbl[m.dest] = lbl[m.a] | lbl[m.b]
		case mcXor:
			regs[m.dest] = av ^ regs[m.b]
			lbl[m.dest] = lbl[m.a] | lbl[m.b]
		case mcShl:
			regs[m.dest] = av << (uint64(regs[m.b]) & 63)
			lbl[m.dest] = lbl[m.a] | lbl[m.b]
		case mcShr:
			regs[m.dest] = int64(uint64(av) >> (uint64(regs[m.b]) & 63))
			lbl[m.dest] = lbl[m.a] | lbl[m.b]
		case mcLoad8:
			u, ok := mem.readFast8(uint64(av))
			if !ok {
				var err error
				if u, err = mem.ReadU(uint64(av), 8); err != nil {
					return -1, 0, mi, err
				}
			}
			regs[m.dest] = int64(u)
			if sink {
				lbl[m.dest] = v.shadow.rangeOr(uint64(av), 8)
			}
		case mcStore8:
			bv := regs[m.b]
			if !mem.write8Fast(uint64(bv), uint64(av)) {
				if err := mem.WriteU(uint64(bv), 8, uint64(av)); err != nil {
					return -1, 0, mi, err
				}
			}
			if sink {
				v.taintStore(uint64(bv), 8, lbl[m.a])
			}
		case mcCmpEq:
			regs[m.dest] = evalCmp(ir.CmpEq, av, regs[m.b])
			lbl[m.dest] = lbl[m.a] | lbl[m.b]
		case mcCmpNe:
			regs[m.dest] = evalCmp(ir.CmpNe, av, regs[m.b])
			lbl[m.dest] = lbl[m.a] | lbl[m.b]
		case mcCmpLt:
			regs[m.dest] = evalCmp(ir.CmpLt, av, regs[m.b])
			lbl[m.dest] = lbl[m.a] | lbl[m.b]
		case mcCmpLe:
			regs[m.dest] = evalCmp(ir.CmpLe, av, regs[m.b])
			lbl[m.dest] = lbl[m.a] | lbl[m.b]
		case mcCmpGt:
			regs[m.dest] = evalCmp(ir.CmpGt, av, regs[m.b])
			lbl[m.dest] = lbl[m.a] | lbl[m.b]
		case mcCmpGe:
			regs[m.dest] = evalCmp(ir.CmpGe, av, regs[m.b])
			lbl[m.dest] = lbl[m.a] | lbl[m.b]
		case mcBr:
			return int(m.off), 0, mi, nil
		case mcCondBr:
			if av != 0 {
				return int(m.off), lbl[m.a], mi, nil
			}
			return int(m.t1), lbl[m.a], mi, nil
		}
	}
	return -1, 0, hi, nil
}

// fusedExit says why runFused returned to callBC.
type fusedExit uint8

const (
	// fusedEnd: the run ended without a terminator; the block goes on
	// at the next instruction.
	fusedEnd fusedExit = iota
	// fusedBranch: a terminator chose a block the kernel does not enter.
	fusedBranch
	// fusedStep: the micro at mi needs stepMicros — a page-cache miss, a
	// sub-word store, a zero divisor or a float rem.
	fusedStep
)

// runFused is the fused-run kernel: it executes micros of the bcFused
// run at pc of block blk from micro mi on, with no calls on its fast
// path. At a taken branch it enters the target itself when the target
// is one fused run ending in its terminator (bcBlock.chain), no
// profiler is attached and the fuel covers the whole target: it does
// the block-loop top's work — the trace frame, the coverage edge, the
// batched fuel and instruction charge, the fused-dispatch count — and
// runs the target's micros. It returns the block and pc it stopped in,
// the micro to step (fusedStep), the branch target (fusedBranch), and
// whether it entered any block, after which callBC resyncs its block
// state. It is a function of its own because callBC's locals, kept
// live across its many calls, would be spilled around every micro.
func (v *VM) runFused(f *bcFunc, regs []int64, xtFrames []uint32, blk int, pc int32, mi int) (int, int, int32, int, fusedExit, bool) {
	mem := v.Mem
	chained := false
runs:
	for {
		micro := f.code[pc].micro
		// All micro operands are register indices after
		// poolMicroConstants (immediates live in the pooled const bank;
		// unused operands alias register 0).
		for ; mi < len(micro); mi++ {
			m := &micro[mi]
			av := regs[m.a]
			switch m.op {
			case mcAdd:
				regs[m.dest] = av + regs[m.b]
			case mcSub:
				regs[m.dest] = av - regs[m.b]
			case mcMul:
				regs[m.dest] = av * regs[m.b]
			case mcAnd:
				regs[m.dest] = av & regs[m.b]
			case mcOr:
				regs[m.dest] = av | regs[m.b]
			case mcXor:
				regs[m.dest] = av ^ regs[m.b]
			case mcShl:
				regs[m.dest] = av << (uint64(regs[m.b]) & 63)
			case mcShr:
				regs[m.dest] = int64(uint64(av) >> (uint64(regs[m.b]) & 63))
			case mcBin:
				// Specialization leaves the kinds that may fault here.
				bv := regs[m.b]
				switch {
				case bv == 0:
					return blk, blk, pc, mi, fusedStep, chained
				case ir.BinKind(m.kind) == ir.BinDiv:
					regs[m.dest] = av / bv
				case ir.BinKind(m.kind) == ir.BinRem:
					regs[m.dest] = av % bv
				default:
					return blk, blk, pc, mi, fusedStep, chained
				}
			case mcCmpEq:
				regs[m.dest] = evalCmp(ir.CmpEq, av, regs[m.b])
			case mcCmpNe:
				regs[m.dest] = evalCmp(ir.CmpNe, av, regs[m.b])
			case mcCmpLt:
				regs[m.dest] = evalCmp(ir.CmpLt, av, regs[m.b])
			case mcCmpLe:
				regs[m.dest] = evalCmp(ir.CmpLe, av, regs[m.b])
			case mcCmpGt:
				regs[m.dest] = evalCmp(ir.CmpGt, av, regs[m.b])
			case mcCmpGe:
				regs[m.dest] = evalCmp(ir.CmpGe, av, regs[m.b])
			case mcCmp:
				regs[m.dest] = evalCmp(ir.CmpKind(m.kind), av, regs[m.b])
			case mcFieldPtr:
				regs[m.dest] = int64(uint64(av) + uint64(m.off))
				v.Stats.FieldAccess++
			case mcElemPtr:
				regs[m.dest] = int64(uint64(av) + uint64(regs[m.b])*uint64(m.size))
			case mcPtrAdd:
				regs[m.dest] = int64(uint64(av) + uint64(regs[m.b]))
			case mcMov:
				regs[m.dest] = av
			case mcLoad8:
				u, ok := mem.readFast8(uint64(av))
				if !ok {
					return blk, blk, pc, mi, fusedStep, chained
				}
				regs[m.dest] = int64(u)
			case mcStore8:
				if !mem.write8Fast(uint64(regs[m.b]), uint64(av)) {
					return blk, blk, pc, mi, fusedStep, chained
				}
			case mcLoad:
				u, ok := mem.readFast(uint64(av), m.size)
				if !ok {
					return blk, blk, pc, mi, fusedStep, chained
				}
				if s := m.signShift; s != 0 {
					regs[m.dest] = int64(u<<s) >> s
				} else {
					regs[m.dest] = int64(u)
				}
			case mcStore:
				return blk, blk, pc, mi, fusedStep, chained
			case mcFBin:
				fa := math.Float64frombits(uint64(av))
				fb := math.Float64frombits(uint64(regs[m.b]))
				switch ir.BinKind(m.kind) {
				case ir.BinAdd:
					regs[m.dest] = int64(math.Float64bits(fa + fb))
				case ir.BinSub:
					regs[m.dest] = int64(math.Float64bits(fa - fb))
				case ir.BinMul:
					regs[m.dest] = int64(math.Float64bits(fa * fb))
				case ir.BinDiv:
					regs[m.dest] = int64(math.Float64bits(fa / fb))
				default:
					return blk, blk, pc, mi, fusedStep, chained
				}
			case mcFCmp:
				fa := math.Float64frombits(uint64(av))
				fb := math.Float64frombits(uint64(regs[m.b]))
				regs[m.dest] = evalFCmp(ir.CmpKind(m.kind), fa, fb)
			case mcItoF:
				regs[m.dest] = int64(math.Float64bits(float64(av)))
			case mcFtoI:
				regs[m.dest] = int64(math.Float64frombits(uint64(av)))
			case mcBr, mcCondBr:
				next := int(m.off)
				if m.op == mcCondBr && av == 0 {
					next = int(m.t1)
				}
				nb := &f.blocks[next]
				if !nb.chain || v.profSites != nil || v.fuelLeft < uint64(nb.cost) {
					return blk, next, pc, mi, fusedBranch, chained
				}
				if xtFrames != nil {
					if fr := xtFrames[next]; !v.xt.FastAppend4(fr) {
						v.xt.BlockFrameSlow(fr)
					}
				}
				if v.coverage != nil {
					if c := &v.coverage[edgeIndex(f.edgeSeed, blk, next)]; *c < 255 {
						*c++
					}
				}
				v.fuelLeft -= uint64(nb.cost)
				v.Stats.Instructions += uint64(nb.cost)
				v.Perf.FusedDispatches++
				blk, pc, chained = next, nb.start, true
				mi = 0
				continue runs
			}
		}
		return blk, blk, pc, mi, fusedEnd, chained
	}
}

// callBC runs one lowered function to completion and returns its
// result with the result's label. It is the bytecode counterpart of
// VM.call; args are the caller's already-resolved operands and argLbls
// their labels (both copied into the frame immediately, so the caller's
// scratch buffers are free for reuse by nested calls), and ctl is the
// caller's control label.
func (v *VM) callBC(f *bcFunc, args []int64, argLbls []byte, ctl byte) (int64, byte, error) {
	fn := f.fn
	if v.depth >= maxCallDepth {
		return 0, 0, fmt.Errorf("%w in @%s", ErrStackOverflow, fn.Name)
	}
	v.depth++
	if v.depth > v.Stats.MaxDepth {
		v.Stats.MaxDepth = v.depth
	}
	v.Stats.Calls++
	var xtFrames []uint32
	if v.xt != nil {
		xtFrames = v.xtEnter(fn)
	}
	// Read once, so every check below tests a local.
	sink, log := v.taint, v.instrLog
	savedStack := v.stackTop
	regs := v.getFrame(f.numRegs)
	lbl := v.getLabels(f.numRegs)
	defer func() {
		v.putFrame(regs)
		v.putLabels(lbl)
		v.stackTop = savedStack
		v.depth--
	}()
	if n := min(len(fn.Params), len(args)); n > 0 {
		copy(regs, args[:n])
		copy(lbl[:n], argLbls)
	}
	for i := range f.consts {
		regs[f.consts[i].slot] = f.consts[i].val
	}

	code := f.code
	mem := v.Mem
	var psc *profile.SiteCounts
	blk, prevBlk := 0, -1
blockLoop:
	for {
		bb := &f.blocks[blk]
		if xtFrames != nil {
			if f := xtFrames[blk]; !v.xt.FastAppend4(f) {
				v.xt.BlockFrameSlow(f)
			}
		}
		if v.profSites != nil {
			c, ok := v.profSites[bb.irb]
			if !ok {
				c = v.prof.Site(v.prog.SiteName(bb.irb))
				v.profSites[bb.irb] = c
			}
			psc = c
		}
		if v.coverage != nil {
			e := edgeIndex(f.edgeSeed, prevBlk, blk)
			if c := &v.coverage[e]; *c < 255 {
				*c++
			}
		}
		end := int32(len(code))
		if blk+1 < len(f.blocks) {
			end = f.blocks[blk+1].start
		}
		cost := uint64(bb.cost)
		batched := v.fuelLeft >= cost
		var charged uint64
		if batched {
			v.fuelLeft -= cost
			v.Stats.Instructions += cost
			charged = cost
		}
		for pc := bb.start; pc < end; pc++ {
			in := &code[pc]
			if !batched {
				w := uint64(in.weight())
				if v.fuelLeft < w {
					return 0, 0, v.fuelOut(f, bb, pc, regs, lbl, charged, psc)
				}
				v.fuelLeft -= w
				v.Stats.Instructions += w
				charged += w
			}
			if log != nil && in.op != bcFused {
				logSource(log, f, bb, pc, 0)
			}

			switch in.op {
			case bcAlloc:
				size, count, err := allocSize(int(in.size), in.a.arg(regs))
				if err != nil {
					return 0, 0, v.bcExitErr(f, bb, pc, charged, psc, v.fault(fn, bb.irb, err))
				}
				addr, err := v.Heap.Alloc(size)
				if err != nil {
					return 0, 0, v.bcExitErr(f, bb, pc, charged, psc, v.fault(fn, bb.irb, err))
				}
				v.Stats.Allocs++
				regs[in.dest] = int64(addr)
				lbl[in.dest] = 0
				if in.st != nil && count == 1 {
					v.objects[addr] = in.st
				}
				if sink != nil {
					// A fresh chunk starts clean.
					v.shadow.setRange(addr, size, 0)
					if in.st != nil && ctl != 0 {
						sink.Alloc(in.st)
					}
				}
				if v.tel != nil {
					name := ""
					if in.st != nil {
						name = in.st.Name
					}
					v.tel.Emit(telemetry.Event{Kind: telemetry.EvAlloc, Addr: addr, Size: size, Detail: name})
				}
			case bcLocal:
				size := uint64((in.size + 15) &^ 15)
				if v.stackTop+size > StackLimit {
					return 0, 0, v.bcExitErr(f, bb, pc, charged, psc, v.fault(fn, bb.irb, ErrStackOverflow))
				}
				addr := v.stackTop
				v.stackTop += size
				if err := mem.Set(addr, 0, int(in.size)); err != nil {
					return 0, 0, v.bcExitErr(f, bb, pc, charged, psc, v.fault(fn, bb.irb, err))
				}
				regs[in.dest] = int64(addr)
				lbl[in.dest] = 0
			case bcFree:
				addr := uint64(in.a.arg(regs))
				if err := v.Heap.Free(addr); err != nil {
					return 0, 0, v.bcExitErr(f, bb, pc, charged, psc, v.fault(fn, bb.irb, err))
				}
				v.Stats.Frees++
				// Report before the delete below drops the object's type.
				if sink != nil && ctl != 0 {
					if st, ok := v.objects[addr]; ok {
						sink.Free(st)
					}
				}
				if v.tel != nil {
					v.tel.Emit(telemetry.Event{Kind: telemetry.EvFree, Addr: addr})
				}
				delete(v.objects, addr)
			case bcMemcpy:
				dst := uint64(in.a.arg(regs))
				src := uint64(in.b.arg(regs))
				n := int(in.c.arg(regs))
				if n < 0 {
					n = 0
				}
				if err := mem.Copy(dst, src, n); err != nil {
					return 0, 0, v.bcExitErr(f, bb, pc, charged, psc, v.fault(fn, bb.irb, err))
				}
				v.Stats.Memcpys++
				if sink != nil && v.shadow.copyRange(dst, src, n) != 0 {
					v.taintContent(dst, n)
				}
			case bcMemset:
				dst := uint64(in.a.arg(regs))
				val := byte(in.b.arg(regs))
				n := int(in.c.arg(regs))
				if n < 0 {
					n = 0
				}
				if err := mem.Set(dst, val, n); err != nil {
					return 0, 0, v.bcExitErr(f, bb, pc, charged, psc, v.fault(fn, bb.irb, err))
				}
				if sink != nil {
					// A constant fill clears the labels.
					v.shadow.setRange(dst, n, 0)
				}
			case bcFused:
				v.Perf.FusedDispatches++
				if sink != nil || log != nil {
					// An observed run steps every micro, label rule and
					// log line included, and does not chain.
					next, cond, mi, err := v.stepMicros(f, bb, pc, 0, len(in.micro), regs, lbl)
					if err != nil {
						return 0, 0, v.bcExitErrAt(f, bb, pc, uint32(mi+1), charged, psc, v.fault(fn, bb.irb, err))
					}
					if next < 0 {
						break
					}
					ctl |= cond
					if psc != nil {
						psc.AddCycles(charged)
					}
					prevBlk, blk = blk, next
					continue blockLoop
				}
				var (
					next    int
					exit    fusedExit
					chained bool
				)
				for mi := 0; ; mi++ {
					blk, next, pc, mi, exit, chained = v.runFused(f, regs, xtFrames, blk, pc, mi)
					if chained {
						// The kernel entered blk (maybe the block it
						// started in) charged in full, as the block-loop
						// top would have.
						bb = &f.blocks[blk]
						end = bb.start + 1
						cost = uint64(bb.cost)
						charged, batched = cost, true
					}
					if exit != fusedStep {
						break
					}
					if _, _, _, err := v.stepMicros(f, bb, pc, mi, mi+1, regs, lbl); err != nil {
						return 0, 0, v.bcExitErrAt(f, bb, pc, uint32(mi+1), charged, psc, v.fault(fn, bb.irb, err))
					}
				}
				if exit == fusedBranch {
					if psc != nil {
						psc.AddCycles(charged)
					}
					prevBlk, blk = blk, next
					continue blockLoop
				}
			case bcCallFunc:
				// The callee copies argv and argl into its frame before
				// it makes a call of its own, so both scratch buffers are
				// free again by then.
				argv, argl := v.argvScratch[:0], v.argLabels[:0]
				for i := range in.args {
					argv = append(argv, in.args[i].arg(regs))
					argl = append(argl, in.args[i].label(lbl))
				}
				v.argvScratch, v.argLabels = argv[:0], argl[:0]
				var suffix uint64
				if batched {
					// Hand back the unexecuted tail of the block so the
					// callee sees the same fuel as under incremental
					// accounting; re-batch (or downgrade) on return.
					if suffix = cost - f.executedThrough(bb, pc); suffix != 0 {
						v.fuelLeft += suffix
						v.Stats.Instructions -= suffix
						charged -= suffix
					}
				}
				ret, rl, err := v.callBC(v.prog.bcFuncs[in.off], argv, argl, ctl)
				if err != nil {
					if psc != nil && charged != 0 {
						psc.AddCycles(charged)
					}
					return 0, 0, err
				}
				if suffix != 0 {
					if v.fuelLeft >= suffix {
						v.fuelLeft -= suffix
						v.Stats.Instructions += suffix
						charged += suffix
					} else {
						batched = false
					}
				}
				if in.dest >= 0 {
					regs[in.dest] = ret
					lbl[in.dest] = rl
				}
			case bcCallBuiltin:
				if in.ic >= 0 && v.lc != nil && sink == nil {
					// Layout cache: an olr_getptr whose (base, field, class)
					// the runtime's cache holds skips the builtin entirely.
					// A taint run never reads it, so every olr_getptr runs
					// its builtin.
					if addr, ok := v.cachedGetptr(bb.irb, uint64(in.args[0].arg(regs)), in.args[1].arg(regs), uint64(in.args[2].arg(regs))); ok {
						if in.dest >= 0 {
							regs[in.dest] = addr
						}
						break
					}
				}
				bi := v.builtinSlots[in.off]
				if bi == nil {
					return 0, 0, v.bcExitErr(f, bb, pc, charged, psc,
						v.fault(fn, bb.irb, fmt.Errorf("%w: @%s", ErrUnknownFunc, in.irIn.Callee)))
				}
				argv := v.argvScratch[:0]
				for i := range in.args {
					argv = append(argv, in.args[i].arg(regs))
				}
				v.argvScratch = argv[:0]
				v.callScratch = Call{VM: v, Name: in.irIn.Callee, Args: argv, RawArgs: in.irIn.Args, fn: fn, blk: bb.irb, getptr: in.ic >= 0}
				ret, err := bi(&v.callScratch)
				if err != nil {
					return 0, 0, v.bcExitErr(f, bb, pc, charged, psc, v.fault(fn, bb.irb, err))
				}
				if in.dest >= 0 {
					regs[in.dest] = ret
				}
				if sink != nil {
					l := v.taintBuiltin(in.irIn.Callee, in.args, argv, ret, lbl)
					if in.dest >= 0 {
						lbl[in.dest] = l
					}
				}
			case bcRet, bcRetVoid:
				var rv int64
				var rl byte
				if in.op == bcRet {
					rv, rl = in.a.arg(regs), in.a.label(lbl)
				}
				actual := f.executedThrough(bb, pc)
				if refund := charged - actual; refund != 0 {
					v.fuelLeft += refund
					v.Stats.Instructions -= refund
				}
				if psc != nil && actual != 0 {
					psc.AddCycles(actual)
				}
				return rv, rl, nil
			default:
				return 0, 0, v.bcExitErr(f, bb, pc, charged, psc,
					v.fault(fn, bb.irb, fmt.Errorf("vm: bad opcode %d", in.irIn.Op)))
			}
		}
		// Validation guarantees every block ends in a terminator; reaching
		// here mirrors the tree-walker's defensive check.
		if psc != nil && charged != 0 {
			psc.AddCycles(charged)
		}
		return 0, 0, v.fault(fn, bb.irb, errFellOffBlock)
	}
}
