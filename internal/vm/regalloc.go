package vm

import "sort"

// Register allocation for the operand file. Lowered functions inherit
// the builder's virtual register numbering, which is append-only and
// sparse: a function that briefly used many temporaries drags a wide
// frame around forever, and every call pays to zero it (getFrame) while
// the hot registers scatter across cache lines. This pass renumbers the
// virtual registers into a small dense bank with a classic linear scan
// over the flat post-fusion instruction array:
//
//   - Backward liveness fixpoint over the lowered blocks (successors
//     read off each block's terminator, the last micro of its final
//     bcFused run when it branches).
//   - Live intervals in flat pc positions, extended to block starts and
//     ends for regs live across edges. Registers live into the entry
//     block are read before any write on some path; their intervals
//     start at -1 so they keep virgin (zero-initialized) slots,
//     preserving the frame's zero-init semantics.
//   - Parameters are pinned to slots 0..n-1 (the call ABI copies args
//     positionally) and never recycled.
//   - Strict expiry (end < start) before reuse, so a def and a last use
//     at the same pc never share a slot.
//
// Only the lowered form is rewritten. The source IR, the tree-walker's
// frames, and the Call ABI's RawArgs keep the original numbering.

// forUses calls f for every register an instruction reads. Unused
// operand fields are zero bcArgs (reg=false), so visiting a/b/c
// unconditionally is exact, not conservative.
func (in *bcInstr) forUses(f func(r int32)) {
	if in.op == bcFused {
		return // handled per-micro, in order, by the callers below
	}
	if in.a.reg {
		f(int32(in.a.v))
	}
	if in.b.reg {
		f(int32(in.b.v))
	}
	if in.c.reg {
		f(int32(in.c.v))
	}
	for i := range in.args {
		if in.args[i].reg {
			f(int32(in.args[i].v))
		}
	}
}

// forDefs calls f for every register an instruction writes.
func (in *bcInstr) forDefs(f func(r int32)) {
	if in.op != bcFused && in.dest >= 0 {
		f(in.dest)
	}
}

type raBitset []uint64

func newRaBitset(n int) raBitset { return make(raBitset, (n+63)/64) }

func (s raBitset) set(i int32)      { s[i>>6] |= 1 << (uint(i) & 63) }
func (s raBitset) get(i int32) bool { return s[i>>6]&(1<<(uint(i)&63)) != 0 }

// orInto ors src into s, reporting whether s changed.
func (s raBitset) orInto(src raBitset) bool {
	changed := false
	for i, w := range src {
		if nw := s[i] | w; nw != s[i] {
			s[i] = nw
			changed = true
		}
	}
	return changed
}

func (s raBitset) forEach(f func(r int32)) {
	for i, w := range s {
		for w != 0 {
			b := w & -w
			r := int32(i<<6) + int32(popcnt(b-1))
			f(r)
			w &^= b
		}
	}
}

func popcnt(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

// bcSuccs returns the successor block indices encoded in a block's
// final instruction: a branch is always the last micro of a fused run.
func bcSuccs(in *bcInstr) []int32 {
	if n := len(in.micro); n > 0 {
		switch m := &in.micro[n-1]; m.op {
		case mcBr:
			return []int32{m.off}
		case mcCondBr:
			return []int32{m.off, m.t1}
		}
	}
	return nil
}

// allocRegisters renumbers bf's virtual registers in place and shrinks
// bf.numRegs to the operand-file size.
func allocRegisters(bf *bcFunc) {
	nr := bf.numRegs
	np := len(bf.fn.Params)
	if nr == 0 || len(bf.code) == 0 {
		return
	}
	nb := len(bf.blocks)
	blockEnd := func(bi int) int32 {
		if bi+1 < nb {
			return bf.blocks[bi+1].start - 1
		}
		return int32(len(bf.code)) - 1
	}

	// Per-block upward-exposed uses and defs. Within an instruction
	// uses are visited before defs, per micro for fused runs.
	use := make([]raBitset, nb)
	def := make([]raBitset, nb)
	liveIn := make([]raBitset, nb)
	liveOut := make([]raBitset, nb)
	for bi := 0; bi < nb; bi++ {
		use[bi], def[bi] = newRaBitset(nr), newRaBitset(nr)
		liveIn[bi], liveOut[bi] = newRaBitset(nr), newRaBitset(nr)
		u, d := use[bi], def[bi]
		addUse := func(r int32) {
			if !d.get(r) {
				u.set(r)
			}
		}
		for pc := bf.blocks[bi].start; pc <= blockEnd(bi); pc++ {
			in := &bf.code[pc]
			if in.op == bcFused {
				for mi := range in.micro {
					m := &in.micro[mi]
					if m.aReg {
						addUse(int32(m.a))
					}
					if m.bReg {
						addUse(int32(m.b))
					}
					if m.cReg {
						addUse(int32(m.c))
					}
					if m.dest >= 0 {
						d.set(m.dest)
					}
				}
				continue
			}
			in.forUses(addUse)
			in.forDefs(d.set)
		}
	}

	// Backward fixpoint: liveOut = ∪ liveIn(succ); liveIn = use ∪
	// (liveOut − def).
	for changed := true; changed; {
		changed = false
		for bi := nb - 1; bi >= 0; bi-- {
			for _, s := range bcSuccs(&bf.code[blockEnd(bi)]) {
				if liveOut[bi].orInto(liveIn[s]) {
					changed = true
				}
			}
			for i, w := range liveOut[bi] {
				nw := liveIn[bi][i] | use[bi][i] | (w &^ def[bi][i])
				if nw != liveIn[bi][i] {
					liveIn[bi][i] = nw
					changed = true
				}
			}
		}
	}

	// Live intervals in flat pc positions.
	const unseen = int32(-2)
	start := make([]int32, nr)
	end := make([]int32, nr)
	for r := range start {
		start[r], end[r] = unseen, unseen
	}
	touch := func(r int32, pos int32) {
		if start[r] == unseen || pos < start[r] {
			start[r] = pos
		}
		if end[r] == unseen || pos > end[r] {
			end[r] = pos
		}
	}
	for bi := 0; bi < nb; bi++ {
		bs, be := bf.blocks[bi].start, blockEnd(bi)
		liveIn[bi].forEach(func(r int32) { touch(r, bs) })
		liveOut[bi].forEach(func(r int32) { touch(r, be) })
		for pc := bs; pc <= be; pc++ {
			in := &bf.code[pc]
			if in.op == bcFused {
				for mi := range in.micro {
					m := &in.micro[mi]
					if m.aReg {
						touch(int32(m.a), pc)
					}
					if m.bReg {
						touch(int32(m.b), pc)
					}
					if m.cReg {
						touch(int32(m.c), pc)
					}
					if m.dest >= 0 {
						touch(m.dest, pc)
					}
				}
				continue
			}
			in.forUses(func(r int32) { touch(r, pc) })
			in.forDefs(func(r int32) { touch(r, pc) })
		}
	}
	// Params materialize with the frame; regs live into the entry block
	// are read before any write on some path and rely on the zeroed
	// frame, so both classes start before pc 0 and can never inherit a
	// dirty slot.
	for r := 0; r < np && r < nr; r++ {
		touch(int32(r), -1)
	}
	liveIn[0].forEach(func(r int32) { touch(r, -1) })

	slot := make([]int32, nr)
	for r := range slot {
		slot[r] = -1
	}
	next := int32(np)
	for r := 0; r < np && r < nr; r++ {
		slot[r] = int32(r) // pinned by the call ABI, never recycled
	}
	order := make([]int32, 0, nr)
	for r := int32(0); r < int32(nr); r++ {
		if start[r] != unseen && r >= int32(np) {
			order = append(order, r)
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if start[order[i]] != start[order[j]] {
			return start[order[i]] < start[order[j]]
		}
		return order[i] < order[j]
	})
	type active struct{ end, slot int32 }
	var live []active
	var free []int32
	for _, r := range order {
		// Strict expiry: a slot frees only once its interval ended
		// before this one starts, so a same-pc def/last-use pair stays
		// apart.
		kept := live[:0]
		for _, a := range live {
			if a.end < start[r] {
				free = append(free, a.slot)
			} else {
				kept = append(kept, a)
			}
		}
		live = kept
		var s int32
		if n := len(free); n > 0 {
			// LIFO reuse keeps the hottest slots hot; determinism comes
			// from the fixed expiry and allocation order.
			s = free[n-1]
			free = free[:n-1]
		} else {
			s = next
			next++
		}
		slot[r] = s
		live = append(live, active{end: end[r], slot: s})
	}

	// Rewrite the lowered stream in place.
	re := func(r int32) int32 { return slot[r] }
	for pc := range bf.code {
		in := &bf.code[pc]
		if in.op == bcFused {
			for mi := range in.micro {
				m := &in.micro[mi]
				if m.aReg {
					m.a = int64(re(int32(m.a)))
				}
				if m.bReg {
					m.b = int64(re(int32(m.b)))
				}
				if m.cReg {
					m.c = int64(re(int32(m.c)))
				}
				if m.dest >= 0 {
					m.dest = re(m.dest)
				}
			}
			continue
		}
		if in.a.reg {
			in.a.v = int64(re(int32(in.a.v)))
		}
		if in.b.reg {
			in.b.v = int64(re(int32(in.b.v)))
		}
		if in.c.reg {
			in.c.v = int64(re(int32(in.c.v)))
		}
		for i := range in.args {
			if in.args[i].reg {
				in.args[i].v = int64(re(int32(in.args[i].v)))
			}
		}
		if in.dest >= 0 {
			in.dest = re(in.dest)
		}
	}
	if int(next) < nr {
		bf.numRegs = int(next)
	}
}

// microReads reports which operands a micro-op actually consumes.
func microReads(op mcOp) (a, b, c bool) {
	switch op {
	case mcGetptr:
		return true, true, true
	case mcStore, mcStore8, mcElemPtr, mcPtrAdd, mcBin, mcFBin, mcCmp, mcFCmp,
		mcAdd, mcSub, mcMul, mcAnd, mcOr, mcXor, mcShl, mcShr,
		mcCmpEq, mcCmpNe, mcCmpLt, mcCmpLe, mcCmpGt, mcCmpGe:
		return true, true, false
	case mcBr:
		return false, false, false
	default: // mcLoad, mcLoad8, mcFieldPtr, mcItoF, mcFtoI, mcMov, mcCondBr
		return true, false, false
	}
}

// poolMicroConstants rewrites every immediate micro operand into a
// pooled frame register (deduplicated per function, installed once per
// call), so the fused dispatch loop resolves all operands with an
// unconditional regs[idx] — no reg-vs-const branch per micro. Unused
// operands are normalized to register 0, which the loop may load and
// discard; the bank therefore guarantees at least one register for any
// function containing a fused run. Runs after allocRegisters: pooled
// slots sit above the allocated operand file and are never recycled.
func poolMicroConstants(bf *bcFunc) {
	pool := map[int64]int32{}
	slotFor := func(val int64) int32 {
		s, ok := pool[val]
		if !ok {
			s = int32(bf.numRegs + len(bf.consts))
			pool[val] = s
			bf.consts = append(bf.consts, bcConst{slot: s, val: val})
		}
		return s
	}
	poolOperand := func(v *int64, reg *bool, used bool) {
		if used && !*reg {
			*v, *reg = int64(slotFor(*v)), true
		} else if !used {
			*v, *reg = 0, true
		}
	}
	fused := false
	for pc := range bf.code {
		in := &bf.code[pc]
		if in.op != bcFused {
			continue
		}
		fused = true
		for mi := range in.micro {
			m := &in.micro[mi]
			usesA, usesB, usesC := microReads(m.op)
			poolOperand(&m.a, &m.aReg, usesA)
			poolOperand(&m.b, &m.bReg, usesB)
			poolOperand(&m.c, &m.cReg, usesC)
		}
	}
	bf.numRegs += len(bf.consts)
	if fused && bf.numRegs == 0 {
		bf.numRegs = 1 // register 0 must exist for normalized operands
	}
}
