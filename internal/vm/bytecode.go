package vm

import "polar/internal/ir"

// This file defines the lowered form the bytecode engine executes: a
// dense flat instruction array per function with every operand resolved
// at compile time, in which each run of straight-line code is one
// bcFused micro-op run. The lowering itself lives in lower.go, the
// dispatch loop in exec_fast.go.
//
// Operand pre-resolution collapses the five ir.Value kinds into two:
// registers and 64-bit immediates. Integer and float constants are
// immediates by definition; global symbols become the absolute
// addresses the Program's (compile-time, instance-independent) layout
// assigned them; function references become their precomputed handles.
// The dispatch loop therefore never touches a string map.

// bcOp is a lowered opcode. Straight-line code has one form: every
// maximal run of fusable source instructions, a lone one included, is a
// bcFused micro-op run. The other opcodes are the instructions that
// touch the heap, the stack, calls or returns.
type bcOp uint8

// Lowered opcodes.
const (
	bcInvalid bcOp = iota
	bcAlloc
	bcLocal
	bcFree
	bcMemcpy
	bcMemset
	bcCallFunc
	bcCallBuiltin
	bcRet
	bcRetVoid

	// bcFused executes a straight-line run of fusable source
	// instructions as a micro-op sequence (bcInstr.micro) in one
	// dispatch. Its weight is the micro count, so fuel,
	// Stats.Instructions and per-site profiler cycles account exactly as
	// if each source instruction had dispatched on its own; every
	// intermediate register is still written. The run may end with the
	// block terminator (br/condbr), in which case the last micro
	// performs the branch.
	bcFused
)

// weight is the number of source instructions an instruction accounts
// for. It is a bcInstr method (not a bcOp one) because bcFused weighs
// len(micro).
func (in *bcInstr) weight() uint32 {
	if in.op == bcFused {
		return uint32(len(in.micro))
	}
	return 1
}

// bcArg is a pre-resolved operand: an immediate, or a register index
// when reg is set.
type bcArg struct {
	v   int64
	reg bool
}

// arg evaluates an operand against the frame. This is the whole operand
// resolution path of the bytecode engine — compare VM.resolve.
func (a bcArg) arg(regs []int64) int64 {
	if a.reg {
		return regs[a.v]
	}
	return a.v
}

// mcOp is a micro-opcode inside a bcFused run: straight-line
// register/memory/arithmetic work, the olr_getptr member access and the
// block terminators, one per fusable source op. The other ops with side
// channels beyond registers, memory and Stats.FieldAccess (allocation,
// free, memcpy, memset, every other call, returns) are not fused; an
// olr_getptr whose layout-cache lookup misses runs its builtin in the
// stepper (stepMicros), which the kernel hands it back to.
type mcOp uint8

// Micro-opcodes.
const (
	mcLoad mcOp = iota
	mcStore
	mcFieldPtr
	mcElemPtr
	mcPtrAdd
	mcBin
	mcFBin
	mcCmp
	mcFCmp
	mcItoF
	mcFtoI
	mcMov
	mcBr
	mcCondBr
	// mcGetptr is an olr_getptr call site (base a, field index b, class
	// hash c; off is the builtin's callee slot, dest -1 when the call
	// has no destination). The kernel serves a layout-cache hit; the
	// stepper runs the builtin.
	mcGetptr

	// Specialized forms the lowering splits off from the general micros
	// above: the non-faulting integer arithmetic kinds, the dominant
	// 8-byte memory width and the compare kinds each get a first-class
	// micro-opcode, so the hot dispatch is one flat switch with no
	// secondary kind/size/sign branch per micro. Semantics are exactly
	// those of the general form they specialize.
	mcAdd
	mcSub
	mcMul
	mcAnd
	mcOr
	mcXor
	mcShl
	mcShr
	mcLoad8  // 8-byte load (never sign-extended)
	mcStore8 // 8-byte store
	mcCmpEq
	mcCmpNe
	mcCmpLt
	mcCmpLe
	mcCmpGt
	mcCmpGe
)

// mcInstr is one micro-op of a fused run: a fully pre-decoded
// single-source-instruction operation. Operands collapse to an int64
// that is either an immediate or (when aReg/bReg/cReg) a register
// index; only mcGetptr reads c. size is the load/store width or elemptr
// element size, off the fieldptr byte offset, a branch's first target
// or a getptr's callee slot, t1 a condbr's false target, kind the
// ir.BinKind/ir.CmpKind payload and signShift 64-8*size for
// sign-extending integer loads (0 otherwise).
type mcInstr struct {
	op               mcOp
	kind             uint8
	signShift        uint8
	aReg, bReg, cReg bool
	dest             int32
	size             int32
	off              int32
	t1               int32
	a, b, c          int64
}

// bcInstr is one lowered instruction. Field meaning varies by opcode:
//
//	dest       destination register (-1 if none)
//	size       local width, alloc element size
//	off        the callee index for calls
//	st         struct type for typed allocations
//	irIn       the source instruction — kept for calls (builtin name and
//	           raw operands for the Call ABI) and diagnostics; never
//	           consulted by the fused straight-line hot path
//	args       call arguments
type bcInstr struct {
	op      bcOp
	dest    int32
	size    int32
	off     int32
	a, b, c bcArg
	st      *ir.StructType
	irIn    *ir.Instr
	args    []bcArg
	// micro is the pre-decoded micro-op sequence of a bcFused run (nil
	// for every other opcode); irIn then points at the run's first
	// source instruction.
	micro []mcInstr
}

// bcBlock locates one basic block inside a bcFunc's flat code array.
type bcBlock struct {
	start int32     // pc of the first instruction
	cost  uint32    // summed instruction weight (source-instruction count)
	irb   *ir.Block // source block (site names, diagnostics)
	// site is the block's interned "@fn.block" name, which a layout-cache
	// hit at one of its getptr micros replays (VM.icHit).
	site string
	// chain marks a block that is exactly one bcFused run ending in its
	// terminator: the fused-run kernel may enter it straight from a
	// taken branch (runFused).
	chain bool
}

// bcFunc is the lowered form of one function.
type bcFunc struct {
	fn     *ir.Func
	code   []bcInstr
	blocks []bcBlock
	// edgeSeed is edgeSeed(fn.Name): the dispatch loops finish every
	// coverage edge of this function from it (edgeIndex).
	edgeSeed uint64
	// wTo[pc] is the cumulative weight of code[:pc]; together with a
	// block's start it prices the executed prefix on the (rare) fault
	// and fuel-scarce paths without any per-instruction accounting.
	wTo     []uint32
	numRegs int
	// consts is the pooled-constant bank: immediate operands of fused
	// micro-ops are hoisted into dedicated frame registers (installed by
	// callBC right after the parameters), so the micro loop reads every
	// operand as regs[idx] with no reg-vs-const branch.
	consts []bcConst
}

// bcConst is one pooled micro-operand constant: val is written to frame
// register slot at function entry.
type bcConst struct {
	slot int32
	val  int64
}

// executedThrough returns the source-instruction count a block has
// charged once the instruction at pc completed (or faulted after being
// counted, matching the tree-walker's count-then-execute order).
func (f *bcFunc) executedThrough(b *bcBlock, pc int32) uint64 {
	return uint64(f.wTo[pc]-f.wTo[b.start]) + uint64(f.code[pc].weight())
}

// executedThroughSub prices a block prefix that ends partway through a
// fused run: the instructions before pc in full, plus sub micro-ops of
// the run at pc (sub = k after micro k-1 completed or faulted — the
// count-then-execute order applies per micro, exactly as the
// tree-walker applies it per source instruction).
func (f *bcFunc) executedThroughSub(b *bcBlock, pc int32, sub uint32) uint64 {
	return uint64(f.wTo[pc]-f.wTo[b.start]) + uint64(sub)
}
