package vm

import (
	"errors"
	"fmt"
	"math"

	"polar/internal/ir"
	"polar/internal/telemetry"
	"polar/internal/telemetry/profile"
)

// This file is the bytecode engine's dispatch loop. It executes the
// lowered form produced in lower.go and is semantically bit-identical to
// the reference tree-walker (reference_test.go): same Stats at every
// fuel value, same error strings at the same sites, same telemetry
// events, same coverage edges, same violation records out of the POLaR
// runtime. The differential suites in this package hold it to that
// contract. Observed runs use the dispatch loop in exec_observed.go.
//
// The speed comes from work moved to compile time (operand kinds, global
// addresses, func handles, field offsets, load widths, callee binding)
// plus four dynamic techniques:
//
//   - Batched accounting: when the remaining fuel covers a whole block,
//     fuel and the instruction counter are charged once at block entry.
//     Early exits (ret, fault, propagated error) refund the unexecuted
//     suffix using the precomputed wTo prefix weights, and a call
//     un-batches the suffix around the callee so fuel exhaustion surfaces
//     at the exact instruction the tree-walker reports.
//   - Superinstructions: the dominant adjacent pairs dispatch once but
//     account as two source instructions; at a fuel boundary the first
//     half executes alone (halfExec) so the cutoff is indistinguishable
//     from the tree-walker's.
//   - The fused-run kernel: bcFused micro-op runs execute in runFused, a
//     small function of its own whose fast path makes no calls. A micro
//     that needs one (a page-cache miss, a sub-word store, a zero
//     divisor, a float rem) returns to callBC, which runs it through
//     stepMicro and re-enters the kernel.
//   - Block chaining: at a taken branch the kernel enters the target
//     itself when the target is one fused run ending in its terminator,
//     no profiler is attached and the fuel covers the whole target. It
//     does the block-loop top's work inline (trace frame, coverage edge,
//     batched charge, fused-dispatch count), so a hot loop of such
//     blocks never returns to the block loop.

var errFellOffBlock = errors.New("vm: fell off block end")

// halfExec performs the first source instruction of a fused pair. It is
// only reached on the fuel-scarce path when exactly one unit of fuel
// remains: the tree-walker would execute the first instruction and then
// fail the fuel check on the second.
func (v *VM) halfExec(in *bcInstr, regs []int64) {
	switch in.op {
	case bcFieldLoad, bcFieldStore:
		regs[in.dest] = int64(uint64(in.a.arg(regs)) + uint64(in.off))
		v.Stats.FieldAccess++
	case bcCmpBr:
		regs[in.dest] = evalCmp(ir.CmpKind(in.kind), in.a.arg(regs), in.b.arg(regs))
	}
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

// stepMicro executes one micro-op outside the kernel: on the
// fuel-scarce prefix path, and for a micro runFused hands back
// (fusedStep). Terminator micros never reach it: a partial prefix is
// strictly shorter than the run, a terminator can only be the run's
// last micro, and the kernel hands back none.
func (v *VM) stepMicro(m *mcInstr, regs []int64) error {
	// Operands are always register indices (poolMicroConstants), exactly
	// as in the hot loop.
	av := regs[m.a]
	bv := regs[m.b]
	switch m.op {
	case mcLoad:
		u, err := v.Mem.ReadU(uint64(av), int(m.size))
		if err != nil {
			return err
		}
		if s := m.signShift; s != 0 {
			regs[m.dest] = int64(u<<s) >> s
		} else {
			regs[m.dest] = int64(u)
		}
	case mcStore:
		if err := v.Mem.WriteU(uint64(bv), int(m.size), uint64(av)); err != nil {
			return err
		}
	case mcFieldPtr:
		regs[m.dest] = int64(uint64(av) + uint64(m.off))
		v.Stats.FieldAccess++
	case mcElemPtr:
		regs[m.dest] = int64(uint64(av) + uint64(bv)*uint64(m.size))
	case mcPtrAdd:
		regs[m.dest] = int64(uint64(av) + uint64(bv))
	case mcBin:
		r, err := evalBin(ir.BinKind(m.kind), av, bv)
		if err != nil {
			return err
		}
		regs[m.dest] = r
	case mcFBin:
		a := math.Float64frombits(uint64(av))
		b := math.Float64frombits(uint64(bv))
		regs[m.dest] = int64(math.Float64bits(evalFBin(ir.BinKind(m.kind), a, b)))
	case mcCmp:
		regs[m.dest] = evalCmp(ir.CmpKind(m.kind), av, bv)
	case mcFCmp:
		a := math.Float64frombits(uint64(av))
		b := math.Float64frombits(uint64(bv))
		regs[m.dest] = evalFCmp(ir.CmpKind(m.kind), a, b)
	case mcItoF:
		regs[m.dest] = int64(math.Float64bits(float64(av)))
	case mcFtoI:
		regs[m.dest] = int64(math.Float64frombits(uint64(av)))
	case mcMov:
		regs[m.dest] = av
	case mcAdd:
		regs[m.dest] = av + bv
	case mcSub:
		regs[m.dest] = av - bv
	case mcMul:
		regs[m.dest] = av * bv
	case mcAnd:
		regs[m.dest] = av & bv
	case mcOr:
		regs[m.dest] = av | bv
	case mcXor:
		regs[m.dest] = av ^ bv
	case mcShl:
		regs[m.dest] = av << (uint64(bv) & 63)
	case mcShr:
		regs[m.dest] = int64(uint64(av) >> (uint64(bv) & 63))
	case mcLoad8:
		u, err := v.Mem.ReadU(uint64(av), 8)
		if err != nil {
			return err
		}
		regs[m.dest] = int64(u)
	case mcStore8:
		if err := v.Mem.WriteU(uint64(bv), 8, uint64(av)); err != nil {
			return err
		}
	case mcCmpEq:
		regs[m.dest] = evalCmp(ir.CmpEq, av, bv)
	case mcCmpNe:
		regs[m.dest] = evalCmp(ir.CmpNe, av, bv)
	case mcCmpLt:
		regs[m.dest] = evalCmp(ir.CmpLt, av, bv)
	case mcCmpLe:
		regs[m.dest] = evalCmp(ir.CmpLe, av, bv)
	case mcCmpGt:
		regs[m.dest] = evalCmp(ir.CmpGt, av, bv)
	case mcCmpGe:
		regs[m.dest] = evalCmp(ir.CmpGe, av, bv)
	}
	return nil
}

// fusedPartial runs the fuel-affordable prefix of a fused run when the
// remaining fuel cannot cover the whole dispatch: exactly what the
// tree-walker would do — execute fuelLeft more source instructions,
// then fail the fuel check (or fault mid-prefix with the prefix
// charged, count-then-execute per micro).
func (v *VM) fusedPartial(fn *ir.Func, bb *bcBlock, in *bcInstr, regs []int64, charged uint64, psc *profile.SiteCounts) error {
	k := v.fuelLeft
	v.fuelLeft = 0
	v.Stats.Instructions += k
	charged += k
	for mi := uint64(0); mi < k; mi++ {
		if err := v.stepMicro(&in.micro[mi], regs); err != nil {
			// Micro mi was counted and then faulted; refund the counted
			// but unexecuted tail of the prefix.
			refund := k - (mi + 1)
			v.fuelLeft += refund
			v.Stats.Instructions -= refund
			charged -= refund
			if psc != nil && charged != 0 {
				psc.AddCycles(charged)
			}
			return v.fault(fn, bb.irb, err)
		}
	}
	if psc != nil && charged != 0 {
		psc.AddCycles(charged)
	}
	return fmt.Errorf("%w in @%s.%s", ErrFuelExhausted, fn.Name, bb.irb.Name)
}

// fusedExit says why runFused returned to callBC.
type fusedExit uint8

const (
	// fusedEnd: the run ended without a terminator; the block goes on
	// at the next instruction.
	fusedEnd fusedExit = iota
	// fusedBranch: a terminator chose a block the kernel does not enter.
	fusedBranch
	// fusedStep: the micro at mi needs stepMicro — a page-cache miss, a
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

// callBC runs one lowered function to completion. It is the bytecode
// counterpart of VM.call; args are the caller's already-resolved
// operands (copied into the frame immediately, so the caller's scratch
// buffer is free for reuse by nested calls).
func (v *VM) callBC(f *bcFunc, args []int64) (int64, error) {
	fn := f.fn
	if v.depth >= maxCallDepth {
		return 0, fmt.Errorf("%w in @%s", ErrStackOverflow, fn.Name)
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
	savedStack := v.stackTop
	regs := v.getFrame(f.numRegs)
	defer func() {
		v.putFrame(regs)
		v.stackTop = savedStack
		v.depth--
	}()
	if n := len(fn.Params); n > 0 {
		if n > len(args) {
			n = len(args)
		}
		copy(regs, args[:n])
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
					if in.op == bcFused && v.fuelLeft > 0 {
						return 0, v.fusedPartial(fn, bb, in, regs, charged, psc)
					}
					if v.fuelLeft == 1 && w == 2 {
						v.halfExec(in, regs)
						v.fuelLeft--
						v.Stats.Instructions++
						charged++
					}
					if psc != nil && charged != 0 {
						psc.AddCycles(charged)
					}
					return 0, fmt.Errorf("%w in @%s.%s", ErrFuelExhausted, fn.Name, bb.irb.Name)
				}
				v.fuelLeft -= w
				v.Stats.Instructions += w
				charged += w
			}

			switch in.op {
			case bcAlloc:
				count := int(in.a.arg(regs))
				if count < 1 {
					count = 1
				}
				size := int(in.size) * count
				addr, err := v.Heap.Alloc(size)
				if err != nil {
					return 0, v.bcExitErr(f, bb, pc, charged, psc, v.fault(fn, bb.irb, err))
				}
				v.Stats.Allocs++
				regs[in.dest] = int64(addr)
				if in.st != nil && count == 1 {
					v.objects[addr] = in.st
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
					return 0, v.bcExitErr(f, bb, pc, charged, psc, v.fault(fn, bb.irb, ErrStackOverflow))
				}
				addr := v.stackTop
				v.stackTop += size
				if err := v.Mem.Set(addr, 0, int(in.size)); err != nil {
					return 0, v.bcExitErr(f, bb, pc, charged, psc, v.fault(fn, bb.irb, err))
				}
				regs[in.dest] = int64(addr)
			case bcFree:
				addr := uint64(in.a.arg(regs))
				if err := v.Heap.Free(addr); err != nil {
					return 0, v.bcExitErr(f, bb, pc, charged, psc, v.fault(fn, bb.irb, err))
				}
				v.Stats.Frees++
				if v.tel != nil {
					v.tel.Emit(telemetry.Event{Kind: telemetry.EvFree, Addr: addr})
				}
				delete(v.objects, addr)
			case bcLoad:
				addr := uint64(in.a.arg(regs))
				u, ok := mem.readFast(addr, in.size)
				if !ok {
					var err error
					u, err = mem.ReadU(addr, int(in.size))
					if err != nil {
						return 0, v.bcExitErr(f, bb, pc, charged, psc, v.fault(fn, bb.irb, err))
					}
				}
				if s := in.signShift; s != 0 {
					regs[in.dest] = int64(u<<s) >> s
				} else {
					regs[in.dest] = int64(u)
				}
			case bcStore:
				addr := uint64(in.b.arg(regs))
				val := in.a.arg(regs)
				if in.size != 8 || !mem.write8Fast(addr, uint64(val)) {
					if err := mem.WriteU(addr, int(in.size), uint64(val)); err != nil {
						return 0, v.bcExitErr(f, bb, pc, charged, psc, v.fault(fn, bb.irb, err))
					}
				}
			case bcMemcpy:
				dst := uint64(in.a.arg(regs))
				src := uint64(in.b.arg(regs))
				n := int(in.c.arg(regs))
				if n < 0 {
					n = 0
				}
				if err := v.Mem.Copy(dst, src, n); err != nil {
					return 0, v.bcExitErr(f, bb, pc, charged, psc, v.fault(fn, bb.irb, err))
				}
				v.Stats.Memcpys++
			case bcMemset:
				dst := uint64(in.a.arg(regs))
				val := byte(in.b.arg(regs))
				n := int(in.c.arg(regs))
				if n < 0 {
					n = 0
				}
				if err := v.Mem.Set(dst, val, n); err != nil {
					return 0, v.bcExitErr(f, bb, pc, charged, psc, v.fault(fn, bb.irb, err))
				}
			case bcFieldPtr:
				regs[in.dest] = int64(uint64(in.a.arg(regs)) + uint64(in.off))
				v.Stats.FieldAccess++
			case bcFieldLoad:
				p := uint64(in.a.arg(regs)) + uint64(in.off)
				regs[in.dest] = int64(p)
				v.Stats.FieldAccess++
				u, ok := mem.readFast(p, in.size)
				if !ok {
					var err error
					u, err = mem.ReadU(p, int(in.size))
					if err != nil {
						return 0, v.bcExitErr(f, bb, pc, charged, psc, v.fault(fn, bb.irb, err))
					}
				}
				if s := in.signShift; s != 0 {
					regs[in.d2] = int64(u<<s) >> s
				} else {
					regs[in.d2] = int64(u)
				}
			case bcFieldStore:
				p := uint64(in.a.arg(regs)) + uint64(in.off)
				regs[in.dest] = int64(p)
				v.Stats.FieldAccess++
				// Resolve the value after the pointer register is written:
				// the store may name the fieldptr result itself.
				val := in.b.arg(regs)
				if in.size != 8 || !mem.write8Fast(p, uint64(val)) {
					if err := mem.WriteU(p, int(in.size), uint64(val)); err != nil {
						return 0, v.bcExitErr(f, bb, pc, charged, psc, v.fault(fn, bb.irb, err))
					}
				}
			case bcElemPtr:
				base := uint64(in.a.arg(regs))
				idx := in.b.arg(regs)
				regs[in.dest] = int64(base + uint64(idx)*uint64(in.size))
			case bcPtrAdd:
				base := uint64(in.a.arg(regs))
				off := in.b.arg(regs)
				regs[in.dest] = int64(base + uint64(off))
			case bcBin:
				r, err := evalBin(ir.BinKind(in.kind), in.a.arg(regs), in.b.arg(regs))
				if err != nil {
					return 0, v.bcExitErr(f, bb, pc, charged, psc, v.fault(fn, bb.irb, err))
				}
				regs[in.dest] = r
			case bcFBin:
				a := math.Float64frombits(uint64(in.a.arg(regs)))
				b := math.Float64frombits(uint64(in.b.arg(regs)))
				regs[in.dest] = int64(math.Float64bits(evalFBin(ir.BinKind(in.kind), a, b)))
			case bcCmp:
				regs[in.dest] = evalCmp(ir.CmpKind(in.kind), in.a.arg(regs), in.b.arg(regs))
			case bcFCmp:
				a := math.Float64frombits(uint64(in.a.arg(regs)))
				b := math.Float64frombits(uint64(in.b.arg(regs)))
				regs[in.dest] = evalFCmp(ir.CmpKind(in.kind), a, b)
			case bcItoF:
				regs[in.dest] = int64(math.Float64bits(float64(in.a.arg(regs))))
			case bcFtoI:
				regs[in.dest] = int64(math.Float64frombits(uint64(in.a.arg(regs))))
			case bcMov:
				regs[in.dest] = in.a.arg(regs)
			case bcBr:
				if psc != nil {
					psc.AddCycles(charged)
				}
				prevBlk, blk = blk, int(in.t0)
				continue blockLoop
			case bcCondBr:
				if psc != nil {
					psc.AddCycles(charged)
				}
				prevBlk = blk
				if in.a.arg(regs) != 0 {
					blk = int(in.t0)
				} else {
					blk = int(in.t1)
				}
				continue blockLoop
			case bcCmpBr:
				c := evalCmp(ir.CmpKind(in.kind), in.a.arg(regs), in.b.arg(regs))
				regs[in.dest] = c
				if psc != nil {
					psc.AddCycles(charged)
				}
				prevBlk = blk
				if c != 0 {
					blk = int(in.t0)
				} else {
					blk = int(in.t1)
				}
				continue blockLoop
			case bcFused:
				v.Perf.FusedDispatches++
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
					if err := v.stepMicro(&code[pc].micro[mi], regs); err != nil {
						return 0, v.bcExitErrAt(f, bb, pc, uint32(mi+1), charged, psc, v.fault(fn, bb.irb, err))
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
				argv := v.argvScratch[:0]
				for i := range in.args {
					argv = append(argv, in.args[i].arg(regs))
				}
				v.argvScratch = argv[:0]
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
				ret, err := v.callBC(v.prog.bcFuncs[in.off], argv)
				if err != nil {
					if psc != nil && charged != 0 {
						psc.AddCycles(charged)
					}
					return 0, err
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
				}
			case bcCallBuiltin:
				if in.ic >= 0 && v.lc != nil {
					// Layout cache: an olr_getptr whose (base, field, class)
					// the runtime's cache holds skips the builtin entirely.
					if addr, ok := v.cachedGetptr(bb.irb, uint64(in.args[0].arg(regs)), in.args[1].arg(regs), uint64(in.args[2].arg(regs))); ok {
						if in.dest >= 0 {
							regs[in.dest] = addr
						}
						break
					}
				}
				bi := v.builtinSlots[in.off]
				if bi == nil {
					return 0, v.bcExitErr(f, bb, pc, charged, psc,
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
					return 0, v.bcExitErr(f, bb, pc, charged, psc, v.fault(fn, bb.irb, err))
				}
				if in.dest >= 0 {
					regs[in.dest] = ret
				}
			case bcRet, bcRetVoid:
				var rv int64
				if in.op == bcRet {
					rv = in.a.arg(regs)
				}
				actual := f.executedThrough(bb, pc)
				if refund := charged - actual; refund != 0 {
					v.fuelLeft += refund
					v.Stats.Instructions -= refund
				}
				if psc != nil && actual != 0 {
					psc.AddCycles(actual)
				}
				return rv, nil
			default:
				return 0, v.bcExitErr(f, bb, pc, charged, psc,
					v.fault(fn, bb.irb, fmt.Errorf("vm: bad opcode %d", in.irIn.Op)))
			}
		}
		// Validation guarantees every block ends in a terminator; reaching
		// here mirrors the tree-walker's defensive check.
		if psc != nil && charged != 0 {
			psc.AddCycles(charged)
		}
		return 0, v.fault(fn, bb.irb, errFellOffBlock)
	}
}
