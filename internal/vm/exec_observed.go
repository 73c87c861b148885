package vm

import (
	"fmt"
	"math"

	"polar/internal/ir"
	"polar/internal/telemetry"
	"polar/internal/telemetry/profile"
)

// This file is the dispatch loop for observed runs: taint runs
// (WithTaint) and instances with the instruction log attached. It
// executes the Program's one lowering, the fused code callBC runs, with
// callBC's block-batched accounting, pair superinstructions and bcFused
// micro-op runs, so fuel, Stats and the profiler account exactly as in
// an unobserved run.
//
// The instruction log writes one line per source instruction, before it
// executes, at the points and in the order of the reference
// tree-walker: a fused run writes one line per micro and a pair
// superinstruction one per half (logSource).
//
// A taint run propagates DFSan's rules inline, in the case that computes
// the value: a one-byte label per register (lbl, indexed like regs), a
// control label per frame (ctl, ORed from every branch condition and
// inherited by callees) and the shadow memory (taint.go). The sink hears
// only of tainted bytes landing in a typed heap object and of objects
// allocated or freed under tainted control. Every instruction that
// writes a register writes its label too. A micro reads the labels of
// only the operands its op uses, because an unused operand aliases
// register 0 (poolMicroConstants); pooled constant slots are never
// written, so their labels stay 0. A taint run never reads the layout
// cache, so every olr_getptr runs its builtin.

// logSource writes the log line of the sub-th source instruction of the
// lowered instruction at pc: micro sub of a fused run, half sub of a
// pair superinstruction. Lowering keeps source order and an
// instruction's weight counts its source instructions, so the line's
// instruction sits at the block weight before pc, plus sub.
func logSource(log *telemetry.InstrLog, f *bcFunc, bb *bcBlock, pc int32, sub int) {
	in := &bb.irb.Instrs[int(f.wTo[pc]-f.wTo[bb.start])+sub]
	log.Emit(f.fn.Name, bb.irb.Name, ir.FormatInstr(f.fn, in))
}

// b2i is a compare's result register value.
func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// callObserved runs one lowered function to completion and returns its
// result with the result's label. args are the resolved arguments,
// argLbls their labels and ctl the caller's control label.
func (v *VM) callObserved(f *bcFunc, args []int64, argLbls []byte, ctl byte) (int64, byte, error) {
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
	// Read once, so every per-micro check below tests a local.
	sink, log := v.taint, v.instrLog
	savedStack := v.stackTop
	regs := v.getFrame(f.numRegs)
	// Register labels are kept without a branch in every observed run.
	// Only shadow memory and the input builtins set one, and those run
	// in a taint run only, so a traced run's labels stay 0.
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
			// nm is how many micros of a fused run execute: all of them,
			// or on the fuel-scarce path the prefix the fuel affords,
			// after which the run fails the fuel check.
			nm := len(in.micro)
			if !batched {
				w := uint64(in.weight())
				if v.fuelLeft < w {
					if in.op == bcFused && v.fuelLeft > 0 {
						// fusedPartial's counterpart: the micros the fuel
						// affords run below, through the same rules.
						nm, w = int(v.fuelLeft), v.fuelLeft
					} else {
						if v.fuelLeft == 1 && w == 2 {
							// The first half of a pair executes alone
							// (halfExec), label and log line included.
							if log != nil {
								logSource(log, f, bb, pc, 0)
							}
							v.halfExec(in, regs)
							l := in.a.label(lbl)
							if in.op == bcCmpBr {
								l |= in.b.label(lbl)
							}
							lbl[in.dest] = l
							v.fuelLeft--
							v.Stats.Instructions++
							charged++
						}
						if psc != nil && charged != 0 {
							psc.AddCycles(charged)
						}
						return 0, 0, fmt.Errorf("%w in @%s.%s", ErrFuelExhausted, fn.Name, bb.irb.Name)
					}
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
				count := int(in.a.arg(regs))
				if count < 1 {
					count = 1
				}
				size := int(in.size) * count
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
			case bcLoad:
				addr := uint64(in.a.arg(regs))
				u, ok := mem.readFast(addr, in.size)
				if !ok {
					var err error
					u, err = mem.ReadU(addr, int(in.size))
					if err != nil {
						return 0, 0, v.bcExitErr(f, bb, pc, charged, psc, v.fault(fn, bb.irb, err))
					}
				}
				if s := in.signShift; s != 0 {
					regs[in.dest] = int64(u<<s) >> s
				} else {
					regs[in.dest] = int64(u)
				}
				if sink != nil {
					lbl[in.dest] = v.shadow.rangeOr(addr, int(in.size))
				}
			case bcStore:
				addr := uint64(in.b.arg(regs))
				val := uint64(in.a.arg(regs))
				if in.size != 8 || !mem.write8Fast(addr, val) {
					if err := mem.WriteU(addr, int(in.size), val); err != nil {
						return 0, 0, v.bcExitErr(f, bb, pc, charged, psc, v.fault(fn, bb.irb, err))
					}
				}
				if sink != nil {
					v.taintStore(addr, int(in.size), in.a.label(lbl))
				}
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
			case bcFieldPtr:
				regs[in.dest] = int64(uint64(in.a.arg(regs)) + uint64(in.off))
				v.Stats.FieldAccess++
				lbl[in.dest] = in.a.label(lbl)
			case bcFieldLoad:
				p := uint64(in.a.arg(regs)) + uint64(in.off)
				regs[in.dest] = int64(p)
				v.Stats.FieldAccess++
				lbl[in.dest] = in.a.label(lbl)
				if log != nil {
					logSource(log, f, bb, pc, 1)
				}
				u, ok := mem.readFast(p, in.size)
				if !ok {
					var err error
					u, err = mem.ReadU(p, int(in.size))
					if err != nil {
						return 0, 0, v.bcExitErr(f, bb, pc, charged, psc, v.fault(fn, bb.irb, err))
					}
				}
				if s := in.signShift; s != 0 {
					regs[in.d2] = int64(u<<s) >> s
				} else {
					regs[in.d2] = int64(u)
				}
				if sink != nil {
					lbl[in.d2] = v.shadow.rangeOr(p, int(in.size))
				}
			case bcFieldStore:
				p := uint64(in.a.arg(regs)) + uint64(in.off)
				regs[in.dest] = int64(p)
				v.Stats.FieldAccess++
				lbl[in.dest] = in.a.label(lbl)
				if log != nil {
					logSource(log, f, bb, pc, 1)
				}
				// Resolve the value, and its label, after the pointer
				// register is written: the store may name the fieldptr
				// result itself.
				val := in.b.arg(regs)
				if in.size != 8 || !mem.write8Fast(p, uint64(val)) {
					if err := mem.WriteU(p, int(in.size), uint64(val)); err != nil {
						return 0, 0, v.bcExitErr(f, bb, pc, charged, psc, v.fault(fn, bb.irb, err))
					}
				}
				if sink != nil {
					v.taintStore(p, int(in.size), in.b.label(lbl))
				}
			case bcElemPtr:
				regs[in.dest] = int64(uint64(in.a.arg(regs)) + uint64(in.b.arg(regs))*uint64(in.size))
				lbl[in.dest] = in.a.label(lbl)
			case bcPtrAdd:
				regs[in.dest] = int64(uint64(in.a.arg(regs)) + uint64(in.b.arg(regs)))
				lbl[in.dest] = in.a.label(lbl)
			case bcBin:
				r, err := evalBin(ir.BinKind(in.kind), in.a.arg(regs), in.b.arg(regs))
				if err != nil {
					return 0, 0, v.bcExitErr(f, bb, pc, charged, psc, v.fault(fn, bb.irb, err))
				}
				regs[in.dest] = r
				lbl[in.dest] = in.a.label(lbl) | in.b.label(lbl)
			case bcFBin:
				fa, fb := math.Float64frombits(uint64(in.a.arg(regs))), math.Float64frombits(uint64(in.b.arg(regs)))
				regs[in.dest] = int64(math.Float64bits(evalFBin(ir.BinKind(in.kind), fa, fb)))
				lbl[in.dest] = in.a.label(lbl) | in.b.label(lbl)
			case bcCmp:
				regs[in.dest] = evalCmp(ir.CmpKind(in.kind), in.a.arg(regs), in.b.arg(regs))
				lbl[in.dest] = in.a.label(lbl) | in.b.label(lbl)
			case bcFCmp:
				fa, fb := math.Float64frombits(uint64(in.a.arg(regs))), math.Float64frombits(uint64(in.b.arg(regs)))
				regs[in.dest] = evalFCmp(ir.CmpKind(in.kind), fa, fb)
				lbl[in.dest] = in.a.label(lbl) | in.b.label(lbl)
			case bcItoF:
				regs[in.dest] = int64(math.Float64bits(float64(in.a.arg(regs))))
				lbl[in.dest] = in.a.label(lbl)
			case bcFtoI:
				regs[in.dest] = int64(math.Float64frombits(uint64(in.a.arg(regs))))
				lbl[in.dest] = in.a.label(lbl)
			case bcMov:
				regs[in.dest] = in.a.arg(regs)
				lbl[in.dest] = in.a.label(lbl)
			case bcBr:
				if psc != nil {
					psc.AddCycles(charged)
				}
				prevBlk, blk = blk, int(in.t0)
				continue blockLoop
			case bcCondBr:
				ctl |= in.a.label(lbl)
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
				lbl[in.dest] = in.a.label(lbl) | in.b.label(lbl)
				ctl |= lbl[in.dest]
				if log != nil {
					logSource(log, f, bb, pc, 1)
				}
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
				micro := in.micro[:nm]
				for mi := range micro {
					m := &micro[mi]
					if log != nil {
						logSource(log, f, bb, pc, mi)
					}
					// av is read before the micro writes its destination,
					// so a load's label comes from the address it read.
					av := regs[m.a]
					switch m.op {
					case mcBin:
						// Only the kinds specializeMicro left general reach
						// here: div and rem, which fault on zero.
						r, err := evalBin(ir.BinKind(m.kind), av, regs[m.b])
						if err != nil {
							return 0, 0, v.bcExitErrAt(f, bb, pc, uint32(mi+1), charged, psc, v.fault(fn, bb.irb, err))
						}
						regs[m.dest] = r
						lbl[m.dest] = lbl[m.a] | lbl[m.b]
					case mcLoad:
						u, ok := mem.readFast(uint64(av), m.size)
						if !ok {
							var err error
							u, err = mem.ReadU(uint64(av), int(m.size))
							if err != nil {
								return 0, 0, v.bcExitErrAt(f, bb, pc, uint32(mi+1), charged, psc, v.fault(fn, bb.irb, err))
							}
						}
						if s := m.signShift; s != 0 {
							regs[m.dest] = int64(u<<s) >> s
						} else {
							regs[m.dest] = int64(u)
						}
						if sink != nil {
							lbl[m.dest] = v.shadow.rangeOr(uint64(av), int(m.size))
						}
					case mcStore:
						bv := regs[m.b]
						if err := mem.WriteU(uint64(bv), int(m.size), uint64(av)); err != nil {
							return 0, 0, v.bcExitErrAt(f, bb, pc, uint32(mi+1), charged, psc, v.fault(fn, bb.irb, err))
						}
						if sink != nil {
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
							u, err = mem.ReadU(uint64(av), 8)
							if err != nil {
								return 0, 0, v.bcExitErrAt(f, bb, pc, uint32(mi+1), charged, psc, v.fault(fn, bb.irb, err))
							}
						}
						regs[m.dest] = int64(u)
						if sink != nil {
							lbl[m.dest] = v.shadow.rangeOr(uint64(av), 8)
						}
					case mcStore8:
						bv := regs[m.b]
						if !mem.write8Fast(uint64(bv), uint64(av)) {
							if err := mem.WriteU(uint64(bv), 8, uint64(av)); err != nil {
								return 0, 0, v.bcExitErrAt(f, bb, pc, uint32(mi+1), charged, psc, v.fault(fn, bb.irb, err))
							}
						}
						if sink != nil {
							v.taintStore(uint64(bv), 8, lbl[m.a])
						}
					case mcCmpEq:
						regs[m.dest] = b2i(av == regs[m.b])
						lbl[m.dest] = lbl[m.a] | lbl[m.b]
					case mcCmpNe:
						regs[m.dest] = b2i(av != regs[m.b])
						lbl[m.dest] = lbl[m.a] | lbl[m.b]
					case mcCmpLt:
						regs[m.dest] = b2i(av < regs[m.b])
						lbl[m.dest] = lbl[m.a] | lbl[m.b]
					case mcCmpLe:
						regs[m.dest] = b2i(av <= regs[m.b])
						lbl[m.dest] = lbl[m.a] | lbl[m.b]
					case mcCmpGt:
						regs[m.dest] = b2i(av > regs[m.b])
						lbl[m.dest] = lbl[m.a] | lbl[m.b]
					case mcCmpGe:
						regs[m.dest] = b2i(av >= regs[m.b])
						lbl[m.dest] = lbl[m.a] | lbl[m.b]
					case mcBr:
						if psc != nil {
							psc.AddCycles(charged)
						}
						prevBlk, blk = blk, int(m.off)
						continue blockLoop
					case mcCondBr:
						ctl |= lbl[m.a]
						if psc != nil {
							psc.AddCycles(charged)
						}
						prevBlk = blk
						if av != 0 {
							blk = int(m.off)
						} else {
							blk = int(m.t1)
						}
						continue blockLoop
					}
				}
				if nm < len(in.micro) {
					// The fuel-scarce prefix ran; the next micro fails the
					// fuel check.
					if psc != nil && charged != 0 {
						psc.AddCycles(charged)
					}
					return 0, 0, fmt.Errorf("%w in @%s.%s", ErrFuelExhausted, fn.Name, bb.irb.Name)
				}
			case bcCallFunc:
				argv := v.argvScratch[:0]
				for i := range in.args {
					argv = append(argv, in.args[i].arg(regs))
				}
				v.argvScratch = argv[:0]
				// The callee copies argv and argl into its frame before
				// it makes a call of its own, so both scratch buffers are
				// free again by then.
				argl := v.argLabels[:0]
				for i := range in.args {
					argl = append(argl, in.args[i].label(lbl))
				}
				v.argLabels = argl[:0]
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
				ret, rl, err := v.callObserved(v.prog.bcFuncs[in.off], argv, argl, ctl)
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
