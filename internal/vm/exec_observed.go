package vm

import (
	"fmt"
	"math"

	"polar/internal/ir"
	"polar/internal/telemetry"
	"polar/internal/telemetry/profile"
)

// This file is the dispatch loop for observed runs: instances with
// Hooks (the taint engine) or the instruction log attached. It executes
// the Program's unfused lowering (observedFuncs), where every lowered
// instruction is exactly one source instruction, and makes every
// observer call from that instruction's irIn: the instruction log line
// before it executes, the Hooks call after, with source operands and
// source register numbers. Points and order match the reference
// tree-walker's, which the differential suites check call for call.
//
// Accounting is per instruction (observed runs are dominated by the
// observers, so block batching would buy nothing), and with Hooks
// attached the layout cache is never read, so Hooks.Builtin sees every
// olr_getptr call.

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

// callObserved runs one function of the unfused lowering to completion.
// args are the resolved arguments; argOps are the caller's source
// operands for Hooks.Enter, and callerDest the caller's source
// destination register for Hooks.Exit (-1 when discarded or at top
// level).
func (v *VM) callObserved(f *bcFunc, args []int64, argOps []ir.Value, callerDest int) (int64, error) {
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
	if v.hooks != nil {
		v.hooks.Enter(fn, argOps)
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
			src := in.irIn
			if v.fuelLeft == 0 {
				chargeSite(psc, charged)
				return 0, fmt.Errorf("%w in @%s.%s", ErrFuelExhausted, fn.Name, bb.irb.Name)
			}
			v.fuelLeft--
			v.Stats.Instructions++
			charged++
			if v.instrLog != nil {
				v.instrLog.Emit(fn.Name, bb.irb.Name, ir.FormatInstr(fn, src))
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
					return 0, v.observedFault(psc, charged, fn, bb.irb, err)
				}
				v.Stats.Allocs++
				regs[in.dest] = int64(addr)
				if in.st != nil && count == 1 {
					v.objects[addr] = in.st
				}
				if v.hooks != nil {
					v.hooks.Alloc(src.Dest, addr, size, in.st)
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
					return 0, v.observedFault(psc, charged, fn, bb.irb, ErrStackOverflow)
				}
				addr := v.stackTop
				v.stackTop += size
				if err := mem.Set(addr, 0, int(in.size)); err != nil {
					return 0, v.observedFault(psc, charged, fn, bb.irb, err)
				}
				regs[in.dest] = int64(addr)
			case bcFree:
				addr := uint64(in.a.arg(regs))
				if err := v.Heap.Free(addr); err != nil {
					return 0, v.observedFault(psc, charged, fn, bb.irb, err)
				}
				v.Stats.Frees++
				// Hook first: the taint engine attributes the free via
				// the object-type tracking this delete removes.
				if v.hooks != nil {
					v.hooks.Free(addr)
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
						return 0, v.observedFault(psc, charged, fn, bb.irb, err)
					}
				}
				if s := in.signShift; s != 0 {
					regs[in.dest] = int64(u<<s) >> s
				} else {
					regs[in.dest] = int64(u)
				}
				if v.hooks != nil {
					v.hooks.Load(src.Dest, addr, int(in.size))
				}
			case bcStore:
				addr := uint64(in.b.arg(regs))
				val := uint64(in.a.arg(regs))
				if in.size != 8 || !mem.write8Fast(addr, val) {
					if err := mem.WriteU(addr, int(in.size), val); err != nil {
						return 0, v.observedFault(psc, charged, fn, bb.irb, err)
					}
				}
				if v.hooks != nil {
					v.hooks.Store(&src.Args[0], addr, int(in.size))
				}
			case bcMemcpy:
				dst := uint64(in.a.arg(regs))
				from := uint64(in.b.arg(regs))
				n := int(in.c.arg(regs))
				if n < 0 {
					n = 0
				}
				if err := mem.Copy(dst, from, n); err != nil {
					return 0, v.observedFault(psc, charged, fn, bb.irb, err)
				}
				v.Stats.Memcpys++
				if v.hooks != nil {
					v.hooks.Memcpy(dst, from, n)
				}
			case bcMemset:
				dst := uint64(in.a.arg(regs))
				val := byte(in.b.arg(regs))
				n := int(in.c.arg(regs))
				if n < 0 {
					n = 0
				}
				if err := mem.Set(dst, val, n); err != nil {
					return 0, v.observedFault(psc, charged, fn, bb.irb, err)
				}
				if v.hooks != nil {
					v.hooks.Memset(dst, n)
				}
			case bcFieldPtr:
				regs[in.dest] = int64(uint64(in.a.arg(regs)) + uint64(in.off))
				v.Stats.FieldAccess++
				if v.hooks != nil {
					v.hooks.PtrDerive(src.Dest, &src.Args[0])
				}
			case bcElemPtr:
				regs[in.dest] = int64(uint64(in.a.arg(regs)) + uint64(in.b.arg(regs))*uint64(in.size))
				if v.hooks != nil {
					v.hooks.PtrDerive(src.Dest, &src.Args[0])
				}
			case bcPtrAdd:
				regs[in.dest] = int64(uint64(in.a.arg(regs)) + uint64(in.b.arg(regs)))
				if v.hooks != nil {
					v.hooks.PtrDerive(src.Dest, &src.Args[0])
				}
			case bcBin, bcFBin, bcCmp, bcFCmp:
				a, b := in.a.arg(regs), in.b.arg(regs)
				switch in.op {
				case bcBin:
					r, err := evalBin(ir.BinKind(in.kind), a, b)
					if err != nil {
						return 0, v.observedFault(psc, charged, fn, bb.irb, err)
					}
					regs[in.dest] = r
				case bcFBin:
					fa, fb := math.Float64frombits(uint64(a)), math.Float64frombits(uint64(b))
					regs[in.dest] = int64(math.Float64bits(evalFBin(ir.BinKind(in.kind), fa, fb)))
				case bcCmp:
					regs[in.dest] = evalCmp(ir.CmpKind(in.kind), a, b)
				default:
					fa, fb := math.Float64frombits(uint64(a)), math.Float64frombits(uint64(b))
					regs[in.dest] = evalFCmp(ir.CmpKind(in.kind), fa, fb)
				}
				if v.hooks != nil {
					v.hooks.Bin(src.Dest, &src.Args[0], &src.Args[1])
				}
			case bcItoF, bcFtoI, bcMov:
				a := in.a.arg(regs)
				switch in.op {
				case bcItoF:
					regs[in.dest] = int64(math.Float64bits(float64(a)))
				case bcFtoI:
					regs[in.dest] = int64(math.Float64frombits(uint64(a)))
				default:
					regs[in.dest] = a
				}
				if v.hooks != nil {
					v.hooks.Un(src.Dest, &src.Args[0])
				}
			case bcBr:
				next = int(in.t0)
			case bcCondBr:
				c := in.a.arg(regs)
				if v.hooks != nil {
					v.hooks.CondBr(&src.Args[0])
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
				chargeSite(psc, charged)
				charged = 0
				ret, err := v.callObserved(v.obsFuncs[in.off], argv, src.Args, src.Dest)
				if err != nil {
					return 0, err
				}
				if in.dest >= 0 {
					regs[in.dest] = ret
				}
			case bcCallBuiltin:
				if in.ic >= 0 && v.lc != nil && v.hooks == nil {
					if addr, ok := v.cachedGetptr(bb.irb, uint64(in.args[0].arg(regs)), in.args[1].arg(regs), uint64(in.args[2].arg(regs))); ok {
						if in.dest >= 0 {
							regs[in.dest] = addr
						}
						break
					}
				}
				bi := v.builtinSlots[in.off]
				if bi == nil {
					return 0, v.observedFault(psc, charged, fn, bb.irb, fmt.Errorf("%w: @%s", ErrUnknownFunc, src.Callee))
				}
				argv := v.argvScratch[:0]
				for i := range in.args {
					argv = append(argv, in.args[i].arg(regs))
				}
				v.argvScratch = argv[:0]
				v.callScratch = Call{VM: v, Name: src.Callee, Args: argv, RawArgs: src.Args, fn: fn, blk: bb.irb, getptr: in.ic >= 0}
				ret, err := bi(&v.callScratch)
				if err != nil {
					return 0, v.observedFault(psc, charged, fn, bb.irb, err)
				}
				if v.hooks != nil {
					v.hooks.Builtin(src.Callee, src.Args, argv, ret, src.Dest)
				}
				if in.dest >= 0 {
					regs[in.dest] = ret
				}
			case bcRet, bcRetVoid:
				var rv int64
				var retArg *ir.Value
				if in.op == bcRet {
					rv = in.a.arg(regs)
					retArg = &src.Args[0]
				}
				if v.hooks != nil {
					v.hooks.Exit(retArg, callerDest)
				}
				chargeSite(psc, charged)
				return rv, nil
			default:
				return 0, v.observedFault(psc, charged, fn, bb.irb, fmt.Errorf("vm: bad opcode %d", src.Op))
			}
		}
		chargeSite(psc, charged)
		charged = 0
		if next < 0 {
			// Validation guarantees every block ends in a terminator.
			return 0, v.fault(fn, bb.irb, errFellOffBlock)
		}
		prevBlk, blk = blk, next
	}
}
