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
// bytecode engine (exec_fast.go, exec_observed.go); the differential
// suites run the same instances here and demand identical results,
// Stats, outputs, coverage, profiles, Hooks calls, instruction logs,
// execution traces and runtime records.
//
// The reference shares the instance's state (memory, heap, fuel, Stats,
// layout cache, observers) with the bytecode engine, so a test
// stamps an instance and picks the engine at the call: VM.Run for
// bytecode, RunReference (export_test.go) for the tree-walker.

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

// refEngine is one reference execution of an instance: the VM plus the
// per-run callee-binding cache.
type refEngine struct {
	v     *VM
	binds map[*ir.Instr]boundCallee
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
	r := &refEngine{v: v, binds: make(map[*ir.Instr]boundCallee)}
	return r.call(f, ops, nil, -1)
}

// call runs fn to completion. callerRegs/callerDest link results back;
// callerRegs is nil for top-level entries.
func (r *refEngine) call(fn *ir.Func, args []ir.Value, callerRegs []int64, callerDest int) (int64, error) {
	v := r.v
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
	regs := v.getFrame(fn.NumRegs)
	defer func() {
		v.putFrame(regs)
		v.stackTop = savedStack
		v.depth--
	}()
	for i := range args {
		if i >= len(fn.Params) {
			break
		}
		regs[i] = v.resolve(callerRegs, args[i])
	}
	if v.hooks != nil {
		v.hooks.Enter(fn, args)
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
				return 0, fmt.Errorf("%w in @%s.%s", ErrFuelExhausted, fn.Name, b.Name)
			}
			v.fuelLeft--
			v.Stats.Instructions++
			if v.instrLog != nil {
				v.instrLog.Emit(fn.Name, b.Name, ir.FormatInstr(fn, in))
			}

			switch in.Op {
			case ir.OpAlloc:
				count := 1
				if len(in.Args) == 1 {
					count = int(v.resolve(regs, in.Args[0]))
					if count < 1 {
						count = 1
					}
				}
				size := in.Type.Size() * count
				addr, err := v.Heap.Alloc(size)
				if err != nil {
					return 0, v.fault(fn, b, err)
				}
				v.Stats.Allocs++
				regs[in.Dest] = int64(addr)
				if in.Struct != nil && count == 1 {
					v.objects[addr] = in.Struct
				}
				if v.hooks != nil {
					v.hooks.Alloc(in.Dest, addr, size, in.Struct)
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
					return 0, v.fault(fn, b, ErrStackOverflow)
				}
				addr := v.stackTop
				v.stackTop += size
				// Locals are zeroed (Go/C++ stack reuse would not be, but
				// deterministic init keeps workloads reproducible).
				if err := v.Mem.Set(addr, 0, in.Type.Size()); err != nil {
					return 0, v.fault(fn, b, err)
				}
				regs[in.Dest] = int64(addr)
			case ir.OpFree:
				addr := uint64(v.resolve(regs, in.Args[0]))
				if err := v.Heap.Free(addr); err != nil {
					return 0, v.fault(fn, b, err)
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
			case ir.OpLoad:
				addr := uint64(v.resolve(regs, in.Args[0]))
				val, err := v.loadTyped(addr, in.Type)
				if err != nil {
					return 0, v.fault(fn, b, err)
				}
				regs[in.Dest] = val
				if v.hooks != nil {
					v.hooks.Load(in.Dest, addr, in.Type.Size())
				}
			case ir.OpStore:
				addr := uint64(v.resolve(regs, in.Args[1]))
				val := v.resolve(regs, in.Args[0])
				if err := v.storeTyped(addr, in.Type, val); err != nil {
					return 0, v.fault(fn, b, err)
				}
				if v.hooks != nil {
					v.hooks.Store(&in.Args[0], addr, in.Type.Size())
				}
			case ir.OpMemcpy:
				dst := uint64(v.resolve(regs, in.Args[0]))
				src := uint64(v.resolve(regs, in.Args[1]))
				n := int(v.resolve(regs, in.Args[2]))
				if n < 0 {
					n = 0
				}
				if err := v.Mem.Copy(dst, src, n); err != nil {
					return 0, v.fault(fn, b, err)
				}
				v.Stats.Memcpys++
				if v.hooks != nil {
					v.hooks.Memcpy(dst, src, n)
				}
			case ir.OpMemset:
				dst := uint64(v.resolve(regs, in.Args[0]))
				val := byte(v.resolve(regs, in.Args[1]))
				n := int(v.resolve(regs, in.Args[2]))
				if n < 0 {
					n = 0
				}
				if err := v.Mem.Set(dst, val, n); err != nil {
					return 0, v.fault(fn, b, err)
				}
				if v.hooks != nil {
					v.hooks.Memset(dst, n)
				}
			case ir.OpFieldPtr:
				base := uint64(v.resolve(regs, in.Args[0]))
				regs[in.Dest] = int64(base + uint64(in.Struct.Offset(in.Field)))
				v.Stats.FieldAccess++
				if v.hooks != nil {
					v.hooks.PtrDerive(in.Dest, &in.Args[0])
				}
			case ir.OpElemPtr:
				base := uint64(v.resolve(regs, in.Args[0]))
				idx := v.resolve(regs, in.Args[1])
				regs[in.Dest] = int64(base + uint64(idx)*uint64(in.Type.Size()))
				if v.hooks != nil {
					v.hooks.PtrDerive(in.Dest, &in.Args[0])
				}
			case ir.OpPtrAdd:
				base := uint64(v.resolve(regs, in.Args[0]))
				off := v.resolve(regs, in.Args[1])
				regs[in.Dest] = int64(base + uint64(off))
				if v.hooks != nil {
					v.hooks.PtrDerive(in.Dest, &in.Args[0])
				}
			case ir.OpBin:
				a := v.resolve(regs, in.Args[0])
				bb := v.resolve(regs, in.Args[1])
				r, err := evalBin(in.Bin, a, bb)
				if err != nil {
					return 0, v.fault(fn, b, err)
				}
				regs[in.Dest] = r
				if v.hooks != nil {
					v.hooks.Bin(in.Dest, &in.Args[0], &in.Args[1])
				}
			case ir.OpFBin:
				a := math.Float64frombits(uint64(v.resolve(regs, in.Args[0])))
				bb := math.Float64frombits(uint64(v.resolve(regs, in.Args[1])))
				regs[in.Dest] = int64(math.Float64bits(evalFBin(in.Bin, a, bb)))
				if v.hooks != nil {
					v.hooks.Bin(in.Dest, &in.Args[0], &in.Args[1])
				}
			case ir.OpCmp:
				a := v.resolve(regs, in.Args[0])
				bb := v.resolve(regs, in.Args[1])
				regs[in.Dest] = evalCmp(in.Cmp, a, bb)
				if v.hooks != nil {
					v.hooks.Bin(in.Dest, &in.Args[0], &in.Args[1])
				}
			case ir.OpFCmp:
				a := math.Float64frombits(uint64(v.resolve(regs, in.Args[0])))
				bb := math.Float64frombits(uint64(v.resolve(regs, in.Args[1])))
				regs[in.Dest] = evalFCmp(in.Cmp, a, bb)
				if v.hooks != nil {
					v.hooks.Bin(in.Dest, &in.Args[0], &in.Args[1])
				}
			case ir.OpItoF:
				regs[in.Dest] = int64(math.Float64bits(float64(v.resolve(regs, in.Args[0]))))
				if v.hooks != nil {
					v.hooks.Un(in.Dest, &in.Args[0])
				}
			case ir.OpFtoI:
				f := math.Float64frombits(uint64(v.resolve(regs, in.Args[0])))
				regs[in.Dest] = int64(f)
				if v.hooks != nil {
					v.hooks.Un(in.Dest, &in.Args[0])
				}
			case ir.OpMov:
				regs[in.Dest] = v.resolve(regs, in.Args[0])
				if v.hooks != nil {
					v.hooks.Un(in.Dest, &in.Args[0])
				}
			case ir.OpBr:
				prevBlk, blk = blk, in.Blocks[0]
			case ir.OpCondBr:
				c := v.resolve(regs, in.Args[0])
				if v.hooks != nil {
					v.hooks.CondBr(&in.Args[0])
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
				ret, err := r.dispatchCall(fn, b, regs, in)
				if profiling {
					profBase = v.Stats.Instructions
				}
				if err != nil {
					return 0, err
				}
				if in.Dest >= 0 {
					regs[in.Dest] = ret
				}
			case ir.OpRet:
				var rv int64
				var retArg *ir.Value
				if len(in.Args) == 1 {
					rv = v.resolve(regs, in.Args[0])
					retArg = &in.Args[0]
				}
				if v.hooks != nil {
					v.hooks.Exit(retArg, callerDest)
				}
				return rv, nil
			default:
				return 0, v.fault(fn, b, fmt.Errorf("vm: bad opcode %d", in.Op))
			}
			if in.Op == ir.OpBr || in.Op == ir.OpCondBr {
				break
			}
		}
		if last := b.Instrs[len(b.Instrs)-1]; last.Op != ir.OpBr && last.Op != ir.OpCondBr {
			// Ret already returned; anything else is a validator bug.
			return 0, v.fault(fn, b, errors.New("vm: fell off block end"))
		}
	}
}

// boundCallee is a resolved call target: a module function, a builtin,
// or (both nil) a callee that resolves to nothing and faults. getptr
// marks an olr_getptr site of the Program's numbering, where the
// layout cache is read.
type boundCallee struct {
	fn     *ir.Func
	bi     Builtin
	getptr bool
}

func (r *refEngine) dispatchCall(fn *ir.Func, b *ir.Block, regs []int64, in *ir.Instr) (int64, error) {
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
		_, bound.getptr = v.prog.getptrSites[in]
		r.binds[in] = bound
	}
	if bound.fn != nil {
		return r.call(bound.fn, in.Args, regs, in.Dest)
	}
	if bound.bi == nil {
		return 0, v.fault(fn, b, fmt.Errorf("%w: @%s", ErrUnknownFunc, in.Callee))
	}
	// Layout-cache fast path, shared with the bytecode engine (same
	// cache, same hit callback — that is what keeps the engines' event
	// and trace streams identical). Hooks disable it: Hooks.Builtin must
	// observe every call.
	if bound.getptr && v.lc != nil && v.hooks == nil {
		if addr, ok := v.cachedGetptr(b, uint64(v.resolve(regs, in.Args[0])), v.resolve(regs, in.Args[1]), uint64(v.resolve(regs, in.Args[2]))); ok {
			return addr, nil
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
		return 0, v.fault(fn, b, err)
	}
	if v.hooks != nil {
		v.hooks.Builtin(in.Callee, in.Args, argv, ret, in.Dest)
	}
	return ret, nil
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
