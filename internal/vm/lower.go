package vm

import (
	"fmt"
	"math"

	"polar/internal/ir"
)

// Lowering flattens each validated function into the bcFunc form at
// Compile time. It runs in two phases per function:
//
//  1. Lowering proper, with every operand pre-resolved against the
//     Program's global layout and function-handle table and every
//     callee bound to a small-int index (module functions directly,
//     builtins through the per-instance slot table RegisterBuiltin
//     populates). Every maximal straight-line run of fusable
//     instructions in a block, a lone one included, becomes one bcFused
//     micro-op run; every other instruction lowers 1:1.
//  2. Register allocation (regalloc.go): a linear-scan pass renumbers
//     the virtual registers into a small dense operand file, shrinking
//     the per-call frame the interpreter must zero and keeping hot
//     registers on the same cache lines.
//
// Every run executes this one lowering in callBC, observed runs (taint
// runs, and runs with the instruction log attached) included: a taint
// run's register labels use the allocated register numbers, and the log
// maps each micro back to its source instruction through the block's
// weights.

// sizeFits reports whether t.Size() is exact and within [0, HeapSize]
// for t and every type inside it. A struct whose fields all fit summed
// at most HeapSize plus padding per field into its static layout, far
// from overflowing, so its size and offsets are exact too.
func sizeFits(t ir.Type) bool {
	switch t := t.(type) {
	case ir.ArrayType:
		es := t.Elem.Size()
		if !sizeFits(t.Elem) || t.Len < 0 || es > 0 && t.Len > HeapSize/es {
			return false
		}
	case *ir.StructType:
		for _, f := range t.Fields {
			if !sizeFits(f.Type) {
				return false
			}
		}
	}
	n := t.Size()
	return n >= 0 && n <= HeapSize
}

// checkSizes fails a module naming a type the lowering would narrow
// to int32 — the type of a local, alloc, load, store or elemptr, or a
// fieldptr's struct — whose size no mapped region holds or overflows.
// The engines would otherwise disagree: the lowering kept a truncated
// size, the reference tree-walker the full one.
func checkSizes(m *ir.Module) error {
	for _, f := range m.Funcs {
		for _, blk := range f.Blocks {
			for ii := range blk.Instrs {
				in := &blk.Instrs[ii]
				var t ir.Type
				switch {
				case in.Type != nil && !sizeFits(in.Type):
					t = in.Type
				case in.Struct != nil && !sizeFits(in.Struct):
					t = in.Struct
				default:
					continue
				}
				return fmt.Errorf("@%s.%s: %w: size of type %s is outside [0, %d]", f.Name, blk.Name, ErrLength, t, HeapSize)
			}
		}
	}
	return nil
}

// lowerAll lowers every function.
func (p *Program) lowerAll() []*bcFunc {
	out := make([]*bcFunc, len(p.mod.Funcs))
	for i, f := range p.mod.Funcs {
		bf := p.lowerFunc(f)
		allocRegisters(bf)
		poolMicroConstants(bf)
		out[i] = bf
	}
	return out
}

// builtinSlotFor returns the callee-table slot for a non-module callee
// name, allocating one on first sight. Slots exist per Program; the
// Builtin values live per instance (see VM.builtinSlots).
func (p *Program) builtinSlotFor(name string) int {
	if idx, ok := p.builtinSlot[name]; ok {
		return idx
	}
	idx := len(p.builtinSlot)
	p.builtinSlot[name] = idx
	return idx
}

// lowerValue pre-resolves one operand. Globals and function references
// become immediates here — the per-execution string-map lookups the
// reference tree-walker performs in resolve() happen exactly once, at
// compile time.
func (p *Program) lowerValue(v ir.Value) bcArg {
	switch v.Kind {
	case ir.ValConst:
		return bcArg{v: v.Int}
	case ir.ValConstF:
		return bcArg{v: int64(math.Float64bits(v.Float))}
	case ir.ValReg:
		return bcArg{v: int64(v.Reg), reg: true}
	case ir.ValGlobal:
		return bcArg{v: int64(p.globals[v.Sym])}
	case ir.ValFunc:
		return bcArg{v: p.funcHandles[v.Sym]}
	default:
		// Mirrors resolve()'s zero for an invalid operand kind.
		return bcArg{}
	}
}

// loadShift returns the sign-extension shift for a typed load (the
// compile-time form of loadTyped's Kind/width check).
func loadShift(t ir.Type) uint8 {
	if n := t.Size(); t.Kind() == ir.KindInt && n < 8 {
		return uint8(64 - 8*n)
	}
	return 0
}

// olrGetptrName is the instrumented member-access builtin whose call
// sites lower to mcGetptr micros (3 args: base, field index, class
// hash — see internal/instrument).
const olrGetptrName = "olr_getptr"

// getptrSite reports whether in is an olr_getptr call site: a call of
// the builtin with its three operands. A module function of that name
// is an ordinary callee.
func (p *Program) getptrSite(in *ir.Instr) bool {
	if in.Op != ir.OpCall || in.Callee != olrGetptrName || len(in.Args) != 3 {
		return false
	}
	_, fn := p.funcIdx[in.Callee]
	return !fn
}

// lowerOne lowers a single non-fusable source instruction 1:1.
func (p *Program) lowerOne(in *ir.Instr) bcInstr {
	var out bcInstr
	out.dest = int32(in.Dest)
	out.irIn = in

	switch in.Op {
	case ir.OpAlloc:
		out.op = bcAlloc
		out.size = int32(in.Type.Size())
		out.st = in.Struct
		if len(in.Args) == 1 {
			out.a = p.lowerValue(in.Args[0])
		} else {
			out.a = bcArg{v: 1}
		}
	case ir.OpLocal:
		out.op = bcLocal
		out.size = int32(in.Type.Size())
	case ir.OpFree:
		out.op = bcFree
		out.a = p.lowerValue(in.Args[0])
	case ir.OpMemcpy:
		out.op = bcMemcpy
		out.a = p.lowerValue(in.Args[0])
		out.b = p.lowerValue(in.Args[1])
		out.c = p.lowerValue(in.Args[2])
	case ir.OpMemset:
		out.op = bcMemset
		out.a = p.lowerValue(in.Args[0])
		out.b = p.lowerValue(in.Args[1])
		out.c = p.lowerValue(in.Args[2])
	case ir.OpCall:
		out.args = make([]bcArg, len(in.Args))
		for ai, a := range in.Args {
			out.args[ai] = p.lowerValue(a)
		}
		if idx, ok := p.funcIdx[in.Callee]; ok {
			out.op = bcCallFunc
			out.off = int32(idx)
		} else {
			out.op = bcCallBuiltin
			out.off = int32(p.builtinSlotFor(in.Callee))
		}
	case ir.OpRet:
		if len(in.Args) == 1 {
			out.op = bcRet
			out.a = p.lowerValue(in.Args[0])
		} else {
			out.op = bcRetVoid
		}
	default:
		// Validation rejects unknown opcodes before lowering runs;
		// keep a faulting instruction so a foreign module that
		// somehow bypassed it reports the same error as the
		// reference tree-walker.
		out.op = bcInvalid
	}
	return out
}

// fusableIR reports whether a source instruction lowers into a fused
// run: straight-line register/memory/arithmetic work, the olr_getptr
// call sites and the block terminators. A getptr site is the one call
// in a run: the kernel serves its layout-cache hits, replaying the
// runtime's observables through VM.icHit, and hands a miss to the
// stepper, which runs the builtin. The other ops with side channels
// beyond registers, memory and Stats.FieldAccess (alloc, local, free,
// memcpy, memset, every other call, rets) stay out of runs, so the
// micro loop needs no telemetry or accounting hooks for them.
// Cross-block runs are never formed: fuel-exhaustion errors name the
// block, so a run must not outlive its block's accounting.
func (p *Program) fusableIR(in *ir.Instr) bool {
	switch in.Op {
	case ir.OpLoad, ir.OpStore, ir.OpFieldPtr, ir.OpElemPtr, ir.OpPtrAdd,
		ir.OpBin, ir.OpFBin, ir.OpCmp, ir.OpFCmp, ir.OpItoF, ir.OpFtoI,
		ir.OpMov, ir.OpBr, ir.OpCondBr:
		return true
	}
	return p.getptrSite(in)
}

// microFor pre-decodes one fusable source instruction into a micro-op.
// Only called for instructions fusableIR admits.
func (p *Program) microFor(in *ir.Instr) mcInstr {
	m := mcInstr{dest: int32(in.Dest)}
	setA := func(v ir.Value) {
		a := p.lowerValue(v)
		m.a, m.aReg = a.v, a.reg
	}
	setB := func(v ir.Value) {
		b := p.lowerValue(v)
		m.b, m.bReg = b.v, b.reg
	}
	switch in.Op {
	case ir.OpCall:
		m.op = mcGetptr
		setA(in.Args[0])
		setB(in.Args[1])
		c := p.lowerValue(in.Args[2])
		m.c, m.cReg = c.v, c.reg
		m.off = int32(p.builtinSlotFor(in.Callee))
	case ir.OpLoad:
		m.op = mcLoad
		setA(in.Args[0])
		m.size = int32(in.Type.Size())
		m.signShift = loadShift(in.Type)
	case ir.OpStore:
		m.op = mcStore
		setA(in.Args[0])
		setB(in.Args[1])
		m.size = int32(in.Type.Size())
	case ir.OpFieldPtr:
		m.op = mcFieldPtr
		setA(in.Args[0])
		m.off = int32(in.Struct.Offset(in.Field))
	case ir.OpElemPtr:
		m.op = mcElemPtr
		setA(in.Args[0])
		setB(in.Args[1])
		m.size = int32(in.Type.Size())
	case ir.OpPtrAdd:
		m.op = mcPtrAdd
		setA(in.Args[0])
		setB(in.Args[1])
	case ir.OpBin:
		m.op = mcBin
		m.kind = uint8(in.Bin)
		setA(in.Args[0])
		setB(in.Args[1])
	case ir.OpFBin:
		m.op = mcFBin
		m.kind = uint8(in.Bin)
		setA(in.Args[0])
		setB(in.Args[1])
	case ir.OpCmp:
		m.op = mcCmp
		m.kind = uint8(in.Cmp)
		setA(in.Args[0])
		setB(in.Args[1])
	case ir.OpFCmp:
		m.op = mcFCmp
		m.kind = uint8(in.Cmp)
		setA(in.Args[0])
		setB(in.Args[1])
	case ir.OpItoF:
		m.op = mcItoF
		setA(in.Args[0])
	case ir.OpFtoI:
		m.op = mcFtoI
		setA(in.Args[0])
	case ir.OpMov:
		m.op = mcMov
		setA(in.Args[0])
	case ir.OpBr:
		m.op = mcBr
		m.off = int32(in.Blocks[0])
	case ir.OpCondBr:
		m.op = mcCondBr
		setA(in.Args[0])
		m.off = int32(in.Blocks[0])
		m.t1 = int32(in.Blocks[1])
	}
	return specializeMicro(m)
}

// specializeMicro rewrites a general micro-op into its dedicated
// single-dispatch form when one exists: non-faulting integer arithmetic
// kinds, 8-byte loads/stores and the compare kinds. Div/rem keep the
// general mcBin (they fault on zero), sub-word memory ops keep
// mcLoad/mcStore (they mask and sign-extend).
func specializeMicro(m mcInstr) mcInstr {
	switch m.op {
	case mcBin:
		switch ir.BinKind(m.kind) {
		case ir.BinAdd:
			m.op = mcAdd
		case ir.BinSub:
			m.op = mcSub
		case ir.BinMul:
			m.op = mcMul
		case ir.BinAnd:
			m.op = mcAnd
		case ir.BinOr:
			m.op = mcOr
		case ir.BinXor:
			m.op = mcXor
		case ir.BinShl:
			m.op = mcShl
		case ir.BinShr:
			m.op = mcShr
		}
	case mcCmp:
		switch ir.CmpKind(m.kind) {
		case ir.CmpEq:
			m.op = mcCmpEq
		case ir.CmpNe:
			m.op = mcCmpNe
		case ir.CmpLt:
			m.op = mcCmpLt
		case ir.CmpLe:
			m.op = mcCmpLe
		case ir.CmpGt:
			m.op = mcCmpGt
		case ir.CmpGe:
			m.op = mcCmpGe
		}
	case mcLoad:
		if m.size == 8 {
			m.op = mcLoad8 // loadShift is 0 for full-width loads
		}
	case mcStore:
		if m.size == 8 {
			m.op = mcStore8
		}
	}
	return m
}

// lowerFunc flattens one function.
func (p *Program) lowerFunc(f *ir.Func) *bcFunc {
	bf := &bcFunc{fn: f, numRegs: f.NumRegs, blocks: make([]bcBlock, len(f.Blocks)), edgeSeed: edgeSeed(f.Name)}
	for bi, blk := range f.Blocks {
		start := int32(len(bf.code))
		cost := uint32(0)
		emit := func(out bcInstr) {
			bf.code = append(bf.code, out)
			cost += out.weight()
		}
		for ii := 0; ii < len(blk.Instrs); {
			hi := ii
			for hi < len(blk.Instrs) && p.fusableIR(&blk.Instrs[hi]) {
				hi++
			}
			if hi == ii {
				emit(p.lowerOne(&blk.Instrs[ii]))
				ii++
				continue
			}
			// A maximal fusable run, a lone instruction included, is
			// one dispatch.
			out := bcInstr{op: bcFused, dest: -1, irIn: &blk.Instrs[ii]}
			out.micro = make([]mcInstr, 0, hi-ii)
			for k := ii; k < hi; k++ {
				out.micro = append(out.micro, p.microFor(&blk.Instrs[k]))
			}
			emit(out)
			ii = hi
		}
		chain := false
		if len(bf.code) == int(start)+1 && bf.code[start].op == bcFused {
			micro := bf.code[start].micro
			last := micro[len(micro)-1].op
			chain = last == mcBr || last == mcCondBr
		}
		bf.blocks[bi] = bcBlock{start: start, cost: cost, irb: blk, site: p.siteNames[blk], chain: chain}
	}
	// Cumulative weights: wTo[pc] prices code[:pc].
	bf.wTo = make([]uint32, len(bf.code)+1)
	w := uint32(0)
	for pc := range bf.code {
		bf.wTo[pc] = w
		w += bf.code[pc].weight()
	}
	bf.wTo[len(bf.code)] = w
	return bf
}
