package vm

import (
	"errors"
	"fmt"
	"math"

	"polar/internal/ir"
	"polar/internal/telemetry"
	"polar/internal/telemetry/profile"
)

// This file is the tree-walking reference interpreter: it executes the
// source IR directly, one *ir.Instr at a time, resolving every operand
// and callee by name as it goes. It is test-only. Shipped code runs the
// bytecode engine (exec_fast.go); the differential suites run the same
// instances here and demand identical results, Stats, outputs,
// coverage, profiles, taint reports, instruction logs, execution traces
// and runtime records.
//
// The reference shares the instance's state (memory, heap, fuel, Stats,
// layout cache, observers, taint sink) with the bytecode engine, so a
// test stamps an instance and picks the engine at the call: VM.Run for
// bytecode, RunReference (export_test.go) for the tree-walker.
//
// A taint run propagates labels here independently of the engine's
// inline rules: labels over source registers, one frame of them per
// call, and a plain map of tainted byte addresses for shadow memory.

// edgeHash is the coverage-bitmap slot of the edge prev -> cur in fn,
// computed from scratch on every block entry: FNV-1a over the name's
// runes, then prev+1 and cur+1. It is the oracle for the engine's
// per-function seed (edgeSeed) and edge finish (edgeIndex), so it
// spells the hash out instead of calling them.
func edgeHash(fn *ir.Func, prev, cur int) uint16 {
	h := uint64(14695981039346656037)
	for _, ch := range fn.Name {
		h = (h ^ uint64(ch)) * 1099511628211
	}
	h = (h ^ uint64(uint32(prev+1))) * 1099511628211
	h = (h ^ uint64(uint32(cur+1))) * 1099511628211
	return uint16(h)
}

// refEngine is one reference execution of an instance: the VM, the
// per-run callee-binding cache and, in a taint run, the set of tainted
// byte addresses.
type refEngine struct {
	v       *VM
	binds   map[*ir.Instr]boundCallee
	tainted map[uint64]bool
}

// refLabel is an operand's label in a frame of source-register labels.
func refLabel(lbl []byte, val ir.Value) byte {
	if val.Kind == ir.ValReg {
		return lbl[val.Reg]
	}
	return 0
}

// rangeLabel is the OR of the labels of [addr, addr+n).
func (r *refEngine) rangeLabel(addr uint64, n int) byte {
	for i := 0; i < n; i++ {
		if r.tainted[addr+uint64(i)] {
			return 1
		}
	}
	return 0
}

// label sets the labels of [addr, addr+n) to l.
func (r *refEngine) label(addr uint64, n int, l byte) {
	for i := 0; i < n; i++ {
		if l != 0 {
			r.tainted[addr+uint64(i)] = true
		} else {
			delete(r.tainted, addr+uint64(i))
		}
	}
}

// content reports tainted bytes at [addr, addr+n) to the sink when they
// lie in a live heap object of known class.
func (r *refEngine) content(addr uint64, n int) {
	base, _, live, ok := r.v.Heap.FindChunk(addr)
	if !ok || !live {
		return
	}
	if st, ok := r.v.objects[base]; ok {
		r.v.taint.Content(st, int(addr-base), n)
	}
}

// runReference executes function name on the tree-walker, bracketed by
// the same fuel-checkpoint events VM.runEntry emits.
func (v *VM) runReference(name string, args []int64) (int64, error) {
	if v.tel != nil {
		v.tel.Emit(telemetry.Event{Kind: telemetry.EvFuelCheckpoint, Size: int(v.fuelLeft), Detail: "run-start"})
	}
	ret, err := v.referenceEntry(name, args)
	if v.tel != nil {
		v.tel.Emit(telemetry.Event{Kind: telemetry.EvFuelCheckpoint, Size: int(v.fuelLeft), Detail: "run-end"})
	}
	return ret, err
}

func (v *VM) referenceEntry(name string, args []int64) (int64, error) {
	f := v.prog.Func(name)
	if f == nil {
		if name == "main" {
			return 0, ir.ErrNoMain
		}
		return 0, fmt.Errorf("%w: @%s", ErrUnknownFunc, name)
	}
	ops := make([]ir.Value, len(args))
	for i, a := range args {
		ops[i] = ir.Const(a)
	}
	r := &refEngine{v: v, binds: make(map[*ir.Instr]boundCallee), tainted: make(map[uint64]bool)}
	ret, _, err := r.call(f, ops, nil, nil, 0)
	return ret, err
}

// call runs fn to completion and returns its result with the result's
// label. args are operands of the caller's frame (callerRegs, and in a
// taint run callerLbl), ctl the caller's control label; callerRegs is
// nil for top-level entries.
func (r *refEngine) call(fn *ir.Func, args []ir.Value, callerRegs []int64, callerLbl []byte, ctl byte) (int64, byte, error) {
	v := r.v
	sink := v.taint
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
	savedStack := v.stackTop
	regs := v.getFrame(fn.NumRegs)
	defer func() {
		v.putFrame(regs)
		v.stackTop = savedStack
		v.depth--
	}()
	var lbl []byte
	if sink != nil {
		lbl = make([]byte, fn.NumRegs)
	}
	for i := range args {
		if i >= len(fn.Params) {
			break
		}
		regs[i] = v.resolve(callerRegs, args[i])
		if sink != nil {
			lbl[i] = refLabel(callerLbl, args[i])
		}
	}

	// Per-instruction profiler attribution: instead of charging a whole
	// block on entry (which overcharges early exits and faults), track
	// the instruction counter at block entry and flush the delta — the
	// instructions this frame actually executed in the block — on every
	// block transition and on every way out of the frame.
	profiling := v.profSites != nil
	var psc *profile.SiteCounts
	var profBase uint64
	if profiling {
		profBase = v.Stats.Instructions
		defer func() {
			if psc != nil {
				if d := v.Stats.Instructions - profBase; d != 0 {
					psc.AddCycles(d)
				}
			}
		}()
	}

	blk := 0
	prevBlk := -1
	for {
		b := fn.Blocks[blk]
		if xtFrames != nil {
			if f := xtFrames[blk]; !v.xt.FastAppend4(f) {
				v.xt.BlockFrameSlow(f)
			}
		}
		if profiling {
			if psc != nil {
				if d := v.Stats.Instructions - profBase; d != 0 {
					psc.AddCycles(d)
				}
			}
			profBase = v.Stats.Instructions
			c, ok := v.profSites[b]
			if !ok {
				c = v.prof.Site(v.prog.SiteName(b))
				v.profSites[b] = c
			}
			psc = c
		}
		if v.coverage != nil {
			e := edgeHash(fn, prevBlk, blk)
			c := &v.coverage[e]
			if *c < 255 {
				*c++
			}
		}
		for ii := range b.Instrs {
			in := &b.Instrs[ii]
			if v.fuelLeft == 0 {
				return 0, 0, fmt.Errorf("%w in @%s.%s", ErrFuelExhausted, fn.Name, b.Name)
			}
			v.fuelLeft--
			v.Stats.Instructions++
			if v.instrLog != nil {
				v.instrLog.Emit(fn.Name, b.Name, ir.FormatInstr(fn, in))
			}

			switch in.Op {
			case ir.OpAlloc:
				var n int64 = 1
				if len(in.Args) == 1 {
					n = v.resolve(regs, in.Args[0])
				}
				size, count, err := allocSize(in.Type.Size(), n)
				if err != nil {
					return 0, 0, v.fault(fn, b, err)
				}
				addr, err := v.Heap.Alloc(size)
				if err != nil {
					return 0, 0, v.fault(fn, b, err)
				}
				v.Stats.Allocs++
				regs[in.Dest] = int64(addr)
				if in.Struct != nil && count == 1 {
					v.objects[addr] = in.Struct
				}
				if sink != nil {
					r.label(addr, size, 0)
					lbl[in.Dest] = 0
					if in.Struct != nil && ctl != 0 {
						sink.Alloc(in.Struct)
					}
				}
				if v.tel != nil {
					name := ""
					if in.Struct != nil {
						name = in.Struct.Name
					}
					v.tel.Emit(telemetry.Event{Kind: telemetry.EvAlloc, Addr: addr, Size: size, Detail: name})
				}
			case ir.OpLocal:
				size := uint64((in.Type.Size() + 15) &^ 15)
				if v.stackTop+size > StackLimit {
					return 0, 0, v.fault(fn, b, ErrStackOverflow)
				}
				addr := v.stackTop
				v.stackTop += size
				// Locals are zeroed (Go/C++ stack reuse would not be, but
				// deterministic init keeps workloads reproducible).
				if err := v.Mem.Set(addr, 0, in.Type.Size()); err != nil {
					return 0, 0, v.fault(fn, b, err)
				}
				regs[in.Dest] = int64(addr)
				if sink != nil {
					lbl[in.Dest] = 0
				}
			case ir.OpFree:
				addr := uint64(v.resolve(regs, in.Args[0]))
				if err := v.Heap.Free(addr); err != nil {
					return 0, 0, v.fault(fn, b, err)
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
			case ir.OpLoad:
				addr := uint64(v.resolve(regs, in.Args[0]))
				val, err := v.loadTyped(addr, in.Type)
				if err != nil {
					return 0, 0, v.fault(fn, b, err)
				}
				regs[in.Dest] = val
				if sink != nil {
					lbl[in.Dest] = r.rangeLabel(addr, in.Type.Size())
				}
			case ir.OpStore:
				addr := uint64(v.resolve(regs, in.Args[1]))
				val := v.resolve(regs, in.Args[0])
				if err := v.storeTyped(addr, in.Type, val); err != nil {
					return 0, 0, v.fault(fn, b, err)
				}
				if sink != nil {
					l := refLabel(lbl, in.Args[0])
					r.label(addr, in.Type.Size(), l)
					if l != 0 {
						r.content(addr, in.Type.Size())
					}
				}
			case ir.OpMemcpy:
				dst := uint64(v.resolve(regs, in.Args[0]))
				src := uint64(v.resolve(regs, in.Args[1]))
				n := int(v.resolve(regs, in.Args[2]))
				if n < 0 {
					n = 0
				}
				if err := v.Mem.Copy(dst, src, n); err != nil {
					return 0, 0, v.fault(fn, b, err)
				}
				v.Stats.Memcpys++
				if sink != nil {
					// memmove: read every source label before writing.
					ls := make([]bool, n)
					for i := range ls {
						ls[i] = r.tainted[src+uint64(i)]
					}
					for i, l := range ls {
						if l {
							r.tainted[dst+uint64(i)] = true
						} else {
							delete(r.tainted, dst+uint64(i))
						}
					}
					if r.rangeLabel(dst, n) != 0 {
						r.content(dst, n)
					}
				}
			case ir.OpMemset:
				dst := uint64(v.resolve(regs, in.Args[0]))
				val := byte(v.resolve(regs, in.Args[1]))
				n := int(v.resolve(regs, in.Args[2]))
				if n < 0 {
					n = 0
				}
				if err := v.Mem.Set(dst, val, n); err != nil {
					return 0, 0, v.fault(fn, b, err)
				}
				if sink != nil {
					r.label(dst, n, 0)
				}
			case ir.OpFieldPtr:
				base := uint64(v.resolve(regs, in.Args[0]))
				regs[in.Dest] = int64(base + uint64(in.Struct.Offset(in.Field)))
				v.Stats.FieldAccess++
				if sink != nil {
					lbl[in.Dest] = refLabel(lbl, in.Args[0])
				}
			case ir.OpElemPtr:
				base := uint64(v.resolve(regs, in.Args[0]))
				idx := v.resolve(regs, in.Args[1])
				regs[in.Dest] = int64(base + uint64(idx)*uint64(in.Type.Size()))
				if sink != nil {
					lbl[in.Dest] = refLabel(lbl, in.Args[0])
				}
			case ir.OpPtrAdd:
				base := uint64(v.resolve(regs, in.Args[0]))
				off := v.resolve(regs, in.Args[1])
				regs[in.Dest] = int64(base + uint64(off))
				if sink != nil {
					lbl[in.Dest] = refLabel(lbl, in.Args[0])
				}
			case ir.OpBin:
				a := v.resolve(regs, in.Args[0])
				bb := v.resolve(regs, in.Args[1])
				r, err := evalBin(in.Bin, a, bb)
				if err != nil {
					return 0, 0, v.fault(fn, b, err)
				}
				regs[in.Dest] = r
				if sink != nil {
					lbl[in.Dest] = refLabel(lbl, in.Args[0]) | refLabel(lbl, in.Args[1])
				}
			case ir.OpFBin:
				a := math.Float64frombits(uint64(v.resolve(regs, in.Args[0])))
				bb := math.Float64frombits(uint64(v.resolve(regs, in.Args[1])))
				regs[in.Dest] = int64(math.Float64bits(evalFBin(in.Bin, a, bb)))
				if sink != nil {
					lbl[in.Dest] = refLabel(lbl, in.Args[0]) | refLabel(lbl, in.Args[1])
				}
			case ir.OpCmp:
				a := v.resolve(regs, in.Args[0])
				bb := v.resolve(regs, in.Args[1])
				regs[in.Dest] = evalCmp(in.Cmp, a, bb)
				if sink != nil {
					lbl[in.Dest] = refLabel(lbl, in.Args[0]) | refLabel(lbl, in.Args[1])
				}
			case ir.OpFCmp:
				a := math.Float64frombits(uint64(v.resolve(regs, in.Args[0])))
				bb := math.Float64frombits(uint64(v.resolve(regs, in.Args[1])))
				regs[in.Dest] = evalFCmp(in.Cmp, a, bb)
				if sink != nil {
					lbl[in.Dest] = refLabel(lbl, in.Args[0]) | refLabel(lbl, in.Args[1])
				}
			case ir.OpItoF:
				regs[in.Dest] = int64(math.Float64bits(float64(v.resolve(regs, in.Args[0]))))
				if sink != nil {
					lbl[in.Dest] = refLabel(lbl, in.Args[0])
				}
			case ir.OpFtoI:
				f := math.Float64frombits(uint64(v.resolve(regs, in.Args[0])))
				regs[in.Dest] = int64(f)
				if sink != nil {
					lbl[in.Dest] = refLabel(lbl, in.Args[0])
				}
			case ir.OpMov:
				regs[in.Dest] = v.resolve(regs, in.Args[0])
				if sink != nil {
					lbl[in.Dest] = refLabel(lbl, in.Args[0])
				}
			case ir.OpBr:
				prevBlk, blk = blk, in.Blocks[0]
			case ir.OpCondBr:
				c := v.resolve(regs, in.Args[0])
				if sink != nil {
					ctl |= refLabel(lbl, in.Args[0])
				}
				if c != 0 {
					prevBlk, blk = blk, in.Blocks[0]
				} else {
					prevBlk, blk = blk, in.Blocks[1]
				}
			case ir.OpCall:
				if profiling {
					// The call instruction itself has been counted: flush
					// it to this site before the callee charges its own
					// sites, then rebase past whatever the callee ran.
					if d := v.Stats.Instructions - profBase; d != 0 {
						psc.AddCycles(d)
					}
				}
				ret, rl, err := r.dispatchCall(fn, b, regs, lbl, ctl, in)
				if profiling {
					profBase = v.Stats.Instructions
				}
				if err != nil {
					return 0, 0, err
				}
				if in.Dest >= 0 {
					regs[in.Dest] = ret
					if sink != nil {
						lbl[in.Dest] = rl
					}
				}
			case ir.OpRet:
				var rv int64
				var rl byte
				if len(in.Args) == 1 {
					rv = v.resolve(regs, in.Args[0])
					if sink != nil {
						rl = refLabel(lbl, in.Args[0])
					}
				}
				return rv, rl, nil
			default:
				return 0, 0, v.fault(fn, b, fmt.Errorf("vm: bad opcode %d", in.Op))
			}
			if in.Op == ir.OpBr || in.Op == ir.OpCondBr {
				break
			}
		}
		if last := b.Instrs[len(b.Instrs)-1]; last.Op != ir.OpBr && last.Op != ir.OpCondBr {
			// Ret already returned; anything else is a validator bug.
			return 0, 0, v.fault(fn, b, errors.New("vm: fell off block end"))
		}
	}
}

// boundCallee is a resolved call target: a module function, a builtin,
// or (both nil) a callee that resolves to nothing and faults. getptr
// marks an olr_getptr call site (Program.getptrSite), where the layout
// cache is read.
type boundCallee struct {
	fn     *ir.Func
	bi     Builtin
	getptr bool
}

// dispatchCall runs one call instruction and returns the result with its
// label.
func (r *refEngine) dispatchCall(fn *ir.Func, b *ir.Block, regs []int64, lbl []byte, ctl byte, in *ir.Instr) (int64, byte, error) {
	v := r.v
	// Callee binding is stable per call site for the length of a run
	// (module functions are fixed at Compile; builtins are registered
	// before it), so resolve the two string maps once and hit a
	// pointer-keyed map after that.
	bound, ok := r.binds[in]
	if !ok {
		bound.fn = v.prog.Func(in.Callee)
		if bound.fn == nil {
			bound.bi = v.builtins[in.Callee]
		}
		bound.getptr = v.prog.getptrSite(in)
		r.binds[in] = bound
	}
	if bound.fn != nil {
		return r.call(bound.fn, in.Args, regs, lbl, ctl)
	}
	if bound.bi == nil {
		return 0, 0, v.fault(fn, b, fmt.Errorf("%w: @%s", ErrUnknownFunc, in.Callee))
	}
	// Layout-cache fast path, shared with the bytecode engine (same
	// cache, same hit callback — that is what keeps the engines' event
	// and trace streams identical). A taint run never takes it.
	if bound.getptr && v.lc != nil && v.taint == nil {
		if addr, ok := v.cachedGetptr(v.prog.SiteName(b), uint64(v.resolve(regs, in.Args[0])), v.resolve(regs, in.Args[1]), uint64(v.resolve(regs, in.Args[2]))); ok {
			return addr, 0, nil
		}
	}
	// Builtins never re-enter the interpreter, so one scratch argument
	// buffer and Call frame per VM suffice (keeps the hot olr_getptr
	// path allocation-free).
	argv := v.argvScratch[:0]
	for _, a := range in.Args {
		argv = append(argv, v.resolve(regs, a))
	}
	v.argvScratch = argv[:0]
	v.callScratch = Call{VM: v, Name: in.Callee, Args: argv, RawArgs: in.Args, fn: fn, blk: b, getptr: bound.getptr}
	ret, err := bound.bi(&v.callScratch)
	if err != nil {
		return 0, 0, v.fault(fn, b, err)
	}
	if v.taint == nil {
		return ret, 0, nil
	}
	switch in.Callee {
	case "input_read":
		if n := int(ret); n > 0 {
			r.label(uint64(argv[0]), n, 1)
			r.content(uint64(argv[0]), n)
		}
		return ret, 1, nil
	case "input_byte", "input_len":
		return ret, 1, nil
	}
	var l byte
	for _, a := range in.Args {
		l |= refLabel(lbl, a)
	}
	return ret, l, nil
}

// resolve evaluates an operand against a register frame.
func (v *VM) resolve(regs []int64, val ir.Value) int64 {
	switch val.Kind {
	case ir.ValConst:
		return val.Int
	case ir.ValConstF:
		return int64(math.Float64bits(val.Float))
	case ir.ValReg:
		return regs[val.Reg]
	case ir.ValGlobal:
		return int64(v.prog.globals[val.Sym])
	case ir.ValFunc:
		return v.prog.funcHandles[val.Sym]
	default:
		return 0
	}
}

func (v *VM) loadTyped(addr uint64, t ir.Type) (int64, error) {
	n := t.Size()
	u, err := v.Mem.ReadU(addr, n)
	if err != nil {
		return 0, err
	}
	if t.Kind() == ir.KindInt && n < 8 {
		// Sign-extend.
		shift := uint(64 - 8*n)
		return int64(u<<shift) >> shift, nil
	}
	return int64(u), nil
}

func (v *VM) storeTyped(addr uint64, t ir.Type, val int64) error {
	return v.Mem.WriteU(addr, t.Size(), uint64(val))
}
