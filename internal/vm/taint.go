package vm

import (
	"encoding/binary"

	"polar/internal/ir"
)

// This file holds the state of a taint run (WithTaint): DFSan's
// propagation rules run inline in the dispatch loop (callBC and its
// micro stepper, exec_fast.go) as one-bit byte operations beside the
// values they shadow, and the VM calls out to a TaintSink only for what
// a report records. A label is 1 when a value or byte depends on the
// program's input (the input_* builtins are the sources) and 0
// otherwise.

// TaintSink receives what a taint run reports. The VM resolves the
// object and its class itself, from the heap's chunk map and its typed
// object map, so a sink sees classes and offsets only.
type TaintSink interface {
	// Content: tainted bytes landed at [off, off+n) of a live object of
	// class st (a store, a memcpy or an input_read).
	Content(st *ir.StructType, off, n int)
	// Alloc: an object of class st was allocated under tainted control.
	Alloc(st *ir.StructType)
	// Free: an object of class st was freed under tainted control.
	Free(st *ir.StructType)
}

// WithTaint runs the instance as a TaintClass taint run reporting into
// sink. The instance runs observed: the Program's one lowering in
// callBC, fused runs stepped one micro at a time, with a label beside
// every register and every byte of memory, and no layout-cache reads,
// so every olr_getptr runs its builtin.
func WithTaint(sink TaintSink) Option {
	return func(v *VM) { v.taint = sink }
}

// label is an operand's taint label: its register's, or 0 for an
// immediate. lbl is indexed by the same allocated register numbers as
// the values, so register allocation cannot misattribute a label.
func (a bcArg) label(lbl []byte) byte {
	if a.reg {
		return lbl[a.v]
	}
	return 0
}

// getLabels returns a zeroed label frame of n registers, pooled like
// getFrame. Every call takes one, so labels are written without a
// branch in every run.
func (v *VM) getLabels(n int) []byte {
	if l := len(v.labelPool); l > 0 {
		fr := v.labelPool[l-1]
		v.labelPool = v.labelPool[:l-1]
		if cap(fr) >= n {
			fr = fr[:n]
			clear(fr)
			return fr
		}
	}
	return make([]byte, n)
}

func (v *VM) putLabels(fr []byte) {
	if len(v.labelPool) < 64 {
		v.labelPool = append(v.labelPool, fr)
	}
}

// taintContent reports tainted bytes at [addr, addr+n) when they lie in
// a live heap object of known class.
func (v *VM) taintContent(addr uint64, n int) {
	base, _, live, ok := v.Heap.FindChunk(addr)
	if !ok || !live {
		return
	}
	if st, ok := v.objects[base]; ok {
		v.taint.Content(st, int(addr-base), n)
	}
}

// taintStore labels the n bytes a store wrote at addr with its value's
// label l, and reports them when l is set.
func (v *VM) taintStore(addr uint64, n int, l byte) {
	v.shadow.setRange(addr, n, l)
	if l != 0 {
		v.taintContent(addr, n)
	}
}

// taintBuiltin applies a builtin call's rule and returns the label of
// its result: input_read taints the bytes it wrote and reports them,
// input_byte and input_len return input, and any other builtin's result
// takes the OR of its argument labels.
func (v *VM) taintBuiltin(name string, args []bcArg, argv []int64, ret int64, lbl []byte) byte {
	switch name {
	case "input_read":
		if n := int(ret); n > 0 {
			v.shadow.setRange(uint64(argv[0]), n, 1)
			v.taintContent(uint64(argv[0]), n)
		}
		return 1
	case "input_byte", "input_len":
		return 1
	}
	var l byte
	for i := range args {
		l |= args[i].label(lbl)
	}
	return l
}

const (
	shadowPageBits = 12
	shadowPageSize = 1 << shadowPageBits
	shadowPageMask = shadowPageSize - 1

	// labelBytes spreads a label over the 8 bytes of one uint64.
	labelBytes = 0x0101_0101_0101_0101
)

type shadowPage [shadowPageSize]byte

// shadowMem is DFSan's shadow memory: one label byte per simulated
// byte, in 4 KiB pages. Only a write of a non-zero label creates a
// page; a missing page reads as zero, so clearing or reading memory
// that never held a label allocates nothing. The zero value is empty.
type shadowMem struct {
	pages map[uint64]*shadowPage

	// lastIdx/last cache the most recent lookup; last is nil when that
	// page does not exist (create keeps the cache current, and pages
	// are never dropped).
	lastIdx uint64
	last    *shadowPage

	// stage is copyRange's staging buffer, reused up to a page.
	stage []byte
}

func (s *shadowMem) lookup(idx uint64) *shadowPage {
	if idx != s.lastIdx {
		s.lastIdx, s.last = idx, s.pages[idx]
	}
	return s.last
}

func (s *shadowMem) create(idx uint64) *shadowPage {
	if p := s.lookup(idx); p != nil {
		return p
	}
	if s.pages == nil {
		s.pages = make(map[uint64]*shadowPage)
	}
	p := new(shadowPage)
	s.pages[idx] = p
	s.lastIdx, s.last = idx, p
	return p
}

// rangeOr returns the OR of the labels of [addr, addr+n).
func (s *shadowMem) rangeOr(addr uint64, n int) byte {
	if off := addr & shadowPageMask; n == 8 && off <= shadowPageSize-8 {
		if p := s.lookup(addr >> shadowPageBits); p != nil && binary.LittleEndian.Uint64(p[off:]) != 0 {
			return 1
		}
		return 0
	}
	for n > 0 {
		off := addr & shadowPageMask
		k := min(n, int(shadowPageSize-off))
		if p := s.lookup(addr >> shadowPageBits); p != nil && anyLabel(p[off:int(off)+k]) {
			return 1
		}
		addr += uint64(k)
		n -= k
	}
	return 0
}

// setRange labels [addr, addr+n) with l.
func (s *shadowMem) setRange(addr uint64, n int, l byte) {
	if off := addr & shadowPageMask; n == 8 && off <= shadowPageSize-8 {
		p := s.lookup(addr >> shadowPageBits)
		if p == nil {
			if l == 0 {
				return
			}
			p = s.create(addr >> shadowPageBits)
		}
		binary.LittleEndian.PutUint64(p[off:], uint64(l)*labelBytes)
		return
	}
	for n > 0 {
		idx, off := addr>>shadowPageBits, addr&shadowPageMask
		k := min(n, int(shadowPageSize-off))
		p := s.lookup(idx)
		if p == nil && l != 0 {
			p = s.create(idx)
		}
		if p != nil {
			seg := p[off : int(off)+k]
			for i := range seg {
				seg[i] = l
			}
		}
		addr += uint64(k)
		n -= k
	}
}

// copyRange copies the labels of [src, src+n) to [dst, dst+n) with
// memmove semantics and returns their OR. A clean source clears the
// destination without staging.
func (s *shadowMem) copyRange(dst, src uint64, n int) byte {
	l := s.rangeOr(src, n)
	if l == 0 {
		s.setRange(dst, n, 0)
	}
	if l == 0 || dst == src {
		return l
	}
	buf := s.stage
	if n > cap(buf) {
		buf = make([]byte, n)
		if n <= shadowPageSize {
			s.stage = buf
		}
	}
	buf = buf[:n]
	for i := 0; i < n; {
		a := src + uint64(i)
		off := a & shadowPageMask
		seg := buf[i:min(n, i+int(shadowPageSize-off))]
		if p := s.lookup(a >> shadowPageBits); p != nil {
			copy(seg, p[off:])
		} else {
			clear(seg)
		}
		i += len(seg)
	}
	for i := 0; i < n; {
		a := dst + uint64(i)
		off := a & shadowPageMask
		seg := buf[i:min(n, i+int(shadowPageSize-off))]
		p := s.lookup(a >> shadowPageBits)
		if p == nil && anyLabel(seg) {
			p = s.create(a >> shadowPageBits)
		}
		if p != nil {
			copy(p[off:], seg)
		}
		i += len(seg)
	}
	return l
}

// anyLabel reports whether any byte of b is labelled.
func anyLabel(b []byte) bool {
	for len(b) >= 8 {
		if binary.LittleEndian.Uint64(b) != 0 {
			return true
		}
		b = b[8:]
	}
	for _, x := range b {
		if x != 0 {
			return true
		}
	}
	return false
}
