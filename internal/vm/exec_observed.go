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
// executes the Program's unfused lowering (observedFuncs), where every
// lowered instruction is exactly one source instruction, so the log
// writes one line per source instruction, before it executes, at the
// points and in the order of the reference tree-walker.
//
// A taint run propagates DFSan's rules inline, beside the values: a
// one-byte label per register (lbl, indexed like regs), a control label
// per frame (ctl, ORed from every branch condition and inherited by
// callees) and the shadow memory (taint.go). The sink hears only of
// tainted bytes landing in a typed heap object and of objects allocated
// or freed under tainted control. Every instruction that writes a
// register writes its label too. A taint run never reads the layout
// cache, so every olr_getptr runs its builtin.
//
// Accounting is per instruction: observed runs pay for their observers
// anyway, so block batching would buy little.

// chargeSite credits n executed instructions to the current profiler
// site (psc is nil when profiling is off).
func chargeSite(psc *profile.SiteCounts, n uint64) {
	if psc != nil && n != 0 {
		psc.AddCycles(n)
	}
}

// observedFault credits the frame's executed instructions to the
// profiler (the faulting one included: count, then execute) and wraps
// err with the site.
func (v *VM) observedFault(psc *profile.SiteCounts, charged uint64, fn *ir.Func, b *ir.Block, err error) error {
	chargeSite(psc, charged)
	return v.fault(fn, b, err)
}

// callObserved runs one function of the unfused lowering to completion
// and returns its result with the result's label. args are the resolved
// arguments; in a taint run argLbls are their labels and ctl the
// caller's control label (both ignored otherwise).
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
	sink := v.taint
	savedStack := v.stackTop
	regs := v.getFrame(f.numRegs)
	var lbl []byte
	if sink != nil {
		lbl = v.getLabels(f.numRegs)
	}
	defer func() {
		v.putFrame(regs)
		if sink != nil {
			v.putLabels(lbl)
		}
		v.stackTop = savedStack
		v.depth--
	}()
	if n := min(len(fn.Params), len(args)); n > 0 {
		copy(regs, args[:n])
		if sink != nil {
			copy(lbl[:n], argLbls)
		}
	}

	code := f.code
	mem := v.Mem
	var psc *profile.SiteCounts
	// charged counts the instructions executed since psc was last
	// credited: flushed at every block exit, before every call (the
	// callee charges its own sites) and on every way out of the frame.
	var charged uint64
	blk, prevBlk := 0, -1
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
		next := -1
		for pc := bb.start; pc < end && next < 0; pc++ {
			in := &code[pc]
			if v.fuelLeft == 0 {
				chargeSite(psc, charged)
				return 0, 0, fmt.Errorf("%w in @%s.%s", ErrFuelExhausted, fn.Name, bb.irb.Name)
			}
			v.fuelLeft--
			v.Stats.Instructions++
			charged++
			if v.instrLog != nil {
				v.instrLog.Emit(fn.Name, bb.irb.Name, ir.FormatInstr(fn, in.irIn))
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
					return 0, 0, v.observedFault(psc, charged, fn, bb.irb, err)
				}
				v.Stats.Allocs++
				regs[in.dest] = int64(addr)
				if in.st != nil && count == 1 {
					v.objects[addr] = in.st
				}
				if sink != nil {
					// A fresh chunk starts clean.
					v.shadow.setRange(addr, size, 0)
					lbl[in.dest] = 0
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
					return 0, 0, v.observedFault(psc, charged, fn, bb.irb, ErrStackOverflow)
				}
				addr := v.stackTop
				v.stackTop += size
				if err := mem.Set(addr, 0, int(in.size)); err != nil {
					return 0, 0, v.observedFault(psc, charged, fn, bb.irb, err)
				}
				regs[in.dest] = int64(addr)
				if sink != nil {
					lbl[in.dest] = 0
				}
			case bcFree:
				addr := uint64(in.a.arg(regs))
				if err := v.Heap.Free(addr); err != nil {
					return 0, 0, v.observedFault(psc, charged, fn, bb.irb, err)
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
						return 0, 0, v.observedFault(psc, charged, fn, bb.irb, err)
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
						return 0, 0, v.observedFault(psc, charged, fn, bb.irb, err)
					}
				}
				if sink != nil {
					l := in.a.label(lbl)
					v.shadow.setRange(addr, int(in.size), l)
					if l != 0 {
						v.taintContent(addr, int(in.size))
					}
				}
			case bcMemcpy:
				dst := uint64(in.a.arg(regs))
				from := uint64(in.b.arg(regs))
				n := int(in.c.arg(regs))
				if n < 0 {
					n = 0
				}
				if err := mem.Copy(dst, from, n); err != nil {
					return 0, 0, v.observedFault(psc, charged, fn, bb.irb, err)
				}
				v.Stats.Memcpys++
				if sink != nil && v.shadow.copyRange(dst, from, n) != 0 {
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
					return 0, 0, v.observedFault(psc, charged, fn, bb.irb, err)
				}
				if sink != nil {
					// A constant fill clears the labels.
					v.shadow.setRange(dst, n, 0)
				}
			case bcFieldPtr:
				regs[in.dest] = int64(uint64(in.a.arg(regs)) + uint64(in.off))
				v.Stats.FieldAccess++
				if sink != nil {
					lbl[in.dest] = in.a.label(lbl)
				}
			case bcElemPtr:
				regs[in.dest] = int64(uint64(in.a.arg(regs)) + uint64(in.b.arg(regs))*uint64(in.size))
				if sink != nil {
					lbl[in.dest] = in.a.label(lbl)
				}
			case bcPtrAdd:
				regs[in.dest] = int64(uint64(in.a.arg(regs)) + uint64(in.b.arg(regs)))
				if sink != nil {
					lbl[in.dest] = in.a.label(lbl)
				}
			case bcBin:
				r, err := evalBin(ir.BinKind(in.kind), in.a.arg(regs), in.b.arg(regs))
				if err != nil {
					return 0, 0, v.observedFault(psc, charged, fn, bb.irb, err)
				}
				regs[in.dest] = r
				if sink != nil {
					lbl[in.dest] = in.a.label(lbl) | in.b.label(lbl)
				}
			case bcFBin:
				fa, fb := math.Float64frombits(uint64(in.a.arg(regs))), math.Float64frombits(uint64(in.b.arg(regs)))
				regs[in.dest] = int64(math.Float64bits(evalFBin(ir.BinKind(in.kind), fa, fb)))
				if sink != nil {
					lbl[in.dest] = in.a.label(lbl) | in.b.label(lbl)
				}
			case bcCmp:
				regs[in.dest] = evalCmp(ir.CmpKind(in.kind), in.a.arg(regs), in.b.arg(regs))
				if sink != nil {
					lbl[in.dest] = in.a.label(lbl) | in.b.label(lbl)
				}
			case bcFCmp:
				fa, fb := math.Float64frombits(uint64(in.a.arg(regs))), math.Float64frombits(uint64(in.b.arg(regs)))
				regs[in.dest] = evalFCmp(ir.CmpKind(in.kind), fa, fb)
				if sink != nil {
					lbl[in.dest] = in.a.label(lbl) | in.b.label(lbl)
				}
			case bcItoF:
				regs[in.dest] = int64(math.Float64bits(float64(in.a.arg(regs))))
				if sink != nil {
					lbl[in.dest] = in.a.label(lbl)
				}
			case bcFtoI:
				regs[in.dest] = int64(math.Float64frombits(uint64(in.a.arg(regs))))
				if sink != nil {
					lbl[in.dest] = in.a.label(lbl)
				}
			case bcMov:
				regs[in.dest] = in.a.arg(regs)
				if sink != nil {
					lbl[in.dest] = in.a.label(lbl)
				}
			case bcBr:
				next = int(in.t0)
			case bcCondBr:
				c := in.a.arg(regs)
				if sink != nil {
					ctl |= in.a.label(lbl)
				}
				if c != 0 {
					next = int(in.t0)
				} else {
					next = int(in.t1)
				}
			case bcCallFunc:
				argv := v.argvScratch[:0]
				for i := range in.args {
					argv = append(argv, in.args[i].arg(regs))
				}
				v.argvScratch = argv[:0]
				// The callee copies argv and argl into its frame before
				// it makes a call of its own, so both scratch buffers
				// are free again by then.
				var argl []byte
				if sink != nil {
					argl = v.argLabels[:0]
					for i := range in.args {
						argl = append(argl, in.args[i].label(lbl))
					}
					v.argLabels = argl[:0]
				}
				chargeSite(psc, charged)
				charged = 0
				ret, rl, err := v.callObserved(v.obsFuncs[in.off], argv, argl, ctl)
				if err != nil {
					return 0, 0, err
				}
				if in.dest >= 0 {
					regs[in.dest] = ret
					if sink != nil {
						lbl[in.dest] = rl
					}
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
					return 0, 0, v.observedFault(psc, charged, fn, bb.irb, fmt.Errorf("%w: @%s", ErrUnknownFunc, in.irIn.Callee))
				}
				argv := v.argvScratch[:0]
				for i := range in.args {
					argv = append(argv, in.args[i].arg(regs))
				}
				v.argvScratch = argv[:0]
				v.callScratch = Call{VM: v, Name: in.irIn.Callee, Args: argv, RawArgs: in.irIn.Args, fn: fn, blk: bb.irb, getptr: in.ic >= 0}
				ret, err := bi(&v.callScratch)
				if err != nil {
					return 0, 0, v.observedFault(psc, charged, fn, bb.irb, err)
				}
				if sink != nil {
					l := v.taintBuiltin(in.irIn.Callee, in.args, argv, ret, lbl)
					if in.dest >= 0 {
						lbl[in.dest] = l
					}
				}
				if in.dest >= 0 {
					regs[in.dest] = ret
				}
			case bcRet, bcRetVoid:
				var rv int64
				var rl byte
				if in.op == bcRet {
					rv = in.a.arg(regs)
					if sink != nil {
						rl = in.a.label(lbl)
					}
				}
				chargeSite(psc, charged)
				return rv, rl, nil
			default:
				return 0, 0, v.observedFault(psc, charged, fn, bb.irb, fmt.Errorf("vm: bad opcode %d", in.irIn.Op))
			}
		}
		chargeSite(psc, charged)
		charged = 0
		if next < 0 {
			// Validation guarantees every block ends in a terminator.
			return 0, 0, v.fault(fn, bb.irb, errFellOffBlock)
		}
		prevBlk, blk = blk, next
	}
}
