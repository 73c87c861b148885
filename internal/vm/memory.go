// Package vm implements the virtual machine that executes POLaR IR
// programs over a simulated byte-addressable address space.
//
// The VM plays the role of the native process in the paper: programs
// (instrumented or not) run over a simulated heap whose chunks are
// recycled like a real allocator's, so use-after-free, stale data and
// per-allocation randomization behave as they would in a C/C++ process.
package vm

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Address-space layout constants.
const (
	pageBits = 16
	pageSize = 1 << pageBits

	// NullGuard is the size of the unmapped region at address zero;
	// any access below it faults as a null dereference.
	NullGuard = 0x1000

	// GlobalBase is where module globals are laid out.
	GlobalBase = 0x0001_0000
	// StackBase is the start of the downward-growing-by-frame local
	// region (each frame bump-allocates upward within it).
	StackBase = 0x1000_0000
	// StackLimit bounds the local region.
	StackLimit = 0x3000_0000
	// HeapBase is where the simulated malloc carves chunks.
	HeapBase = 0x4000_0000
	// HeapSize is the virtual heap capacity.
	HeapSize = 0x4000_0000
)

// ErrNullDeref is wrapped by memory faults in the null guard page.
var ErrNullDeref = errors.New("vm: null pointer dereference")

// Memory is a sparse paged byte store. The zero value is not usable;
// use newMemory.
type Memory struct {
	pages map[uint64][]byte

	// Two-entry page cache: the interpreter has strong locality, but it
	// is typically split across two working pages at once (stack locals
	// vs a heap object), so one entry thrashes exactly on the hottest
	// load/store interleavings.
	lastIdx   uint64
	lastPage  []byte
	last2Idx  uint64
	last2Page []byte

	// copyBuf is Copy's staging buffer, reused across calls; copies
	// longer than a page stage through a temporary instead, so one huge
	// copy does not pin its size for the Memory's life.
	copyBuf []byte
}

func newMemory() *Memory {
	return &Memory{pages: make(map[uint64][]byte), lastIdx: ^uint64(0), last2Idx: ^uint64(0)}
}

// zeroPage is what a page that was never written reads as. It never
// enters the page cache, so the store fast path cannot write into it.
var zeroPage [pageSize]byte

// page returns page idx through the two-entry cache. A missing page is
// created for a write; a read gets the shared zero page instead, so
// reading untouched memory costs no Go memory.
func (m *Memory) page(idx uint64, write bool) []byte {
	if idx == m.lastIdx {
		return m.lastPage
	}
	if idx == m.last2Idx {
		// Swap to the front so the fast paths (which probe front first)
		// keep both working pages hittable.
		m.lastIdx, m.last2Idx = idx, m.lastIdx
		m.lastPage, m.last2Page = m.last2Page, m.lastPage
		return m.lastPage
	}
	p, ok := m.pages[idx]
	if !ok {
		if !write {
			return zeroPage[:]
		}
		p = make([]byte, pageSize)
		m.pages[idx] = p
	}
	m.last2Idx, m.last2Page = m.lastIdx, m.lastPage
	m.lastIdx, m.lastPage = idx, p
	return p
}

func (m *Memory) check(addr uint64, n int) error {
	if addr < NullGuard {
		return fmt.Errorf("%w at 0x%x", ErrNullDeref, addr)
	}
	_ = n
	return nil
}

// loadMask selects the low n bytes of an 8-byte load (readFast).
var loadMask = [9]uint64{1: 0xff, 2: 0xffff, 4: 0xffff_ffff, 8: ^uint64(0)}

// readFast is the bytecode engine's inline load path: the access must
// land whole in the cached page with 8 readable bytes at its offset
// (the wide load is masked down to n). Reports false — never faults —
// when any condition misses; the caller falls back to ReadU, which
// re-derives the fault or refills the page cache. Small on purpose so
// it inlines into the dispatch loop.
func (m *Memory) readFast(addr uint64, n int32) (uint64, bool) {
	off := addr & (pageSize - 1)
	if addr < NullGuard || off+8 > pageSize {
		return 0, false
	}
	if idx := addr >> pageBits; idx == m.lastIdx {
		return binary.LittleEndian.Uint64(m.lastPage[off:]) & loadMask[n], true
	} else if idx == m.last2Idx {
		return binary.LittleEndian.Uint64(m.last2Page[off:]) & loadMask[n], true
	}
	return 0, false
}

// readFast8 is readFast specialized to the full 8-byte width the
// lowering marks as mcLoad8 — no mask table on the hottest load path.
func (m *Memory) readFast8(addr uint64) (uint64, bool) {
	off := addr & (pageSize - 1)
	if addr < NullGuard || off+8 > pageSize {
		return 0, false
	}
	if idx := addr >> pageBits; idx == m.lastIdx {
		return binary.LittleEndian.Uint64(m.lastPage[off:]), true
	} else if idx == m.last2Idx {
		return binary.LittleEndian.Uint64(m.last2Page[off:]), true
	}
	return 0, false
}

// write8Fast is readFast's store counterpart for the dominant 8-byte
// width.
func (m *Memory) write8Fast(addr uint64, v uint64) bool {
	off := addr & (pageSize - 1)
	if addr < NullGuard || off+8 > pageSize {
		return false
	}
	if idx := addr >> pageBits; idx == m.lastIdx {
		binary.LittleEndian.PutUint64(m.lastPage[off:], v)
		return true
	} else if idx == m.last2Idx {
		binary.LittleEndian.PutUint64(m.last2Page[off:], v)
		return true
	}
	return false
}

// ReadU reads an n-byte little-endian unsigned integer (n ∈ {1,2,4,8}).
func (m *Memory) ReadU(addr uint64, n int) (uint64, error) {
	if err := m.check(addr, n); err != nil {
		return 0, err
	}
	off := addr & (pageSize - 1)
	if off+uint64(n) <= pageSize {
		p := m.page(addr>>pageBits, false)
		switch n {
		case 1:
			return uint64(p[off]), nil
		case 2:
			return uint64(binary.LittleEndian.Uint16(p[off:])), nil
		case 4:
			return uint64(binary.LittleEndian.Uint32(p[off:])), nil
		case 8:
			return binary.LittleEndian.Uint64(p[off:]), nil
		}
	}
	// Straddles a page boundary: byte-at-a-time.
	var v uint64
	for i := 0; i < n; i++ {
		b := m.page((addr+uint64(i))>>pageBits, false)[(addr+uint64(i))&(pageSize-1)]
		v |= uint64(b) << (8 * i)
	}
	return v, nil
}

// WriteU writes an n-byte little-endian unsigned integer.
func (m *Memory) WriteU(addr uint64, n int, v uint64) error {
	if err := m.check(addr, n); err != nil {
		return err
	}
	off := addr & (pageSize - 1)
	if off+uint64(n) <= pageSize {
		p := m.page(addr>>pageBits, true)
		switch n {
		case 1:
			p[off] = byte(v)
			return nil
		case 2:
			binary.LittleEndian.PutUint16(p[off:], uint16(v))
			return nil
		case 4:
			binary.LittleEndian.PutUint32(p[off:], uint32(v))
			return nil
		case 8:
			binary.LittleEndian.PutUint64(p[off:], v)
			return nil
		}
	}
	for i := 0; i < n; i++ {
		m.page((addr+uint64(i))>>pageBits, true)[(addr+uint64(i))&(pageSize-1)] = byte(v >> (8 * i))
	}
	return nil
}

// ReadInto fills b with the len(b) bytes starting at addr and
// allocates nothing.
func (m *Memory) ReadInto(addr uint64, b []byte) error {
	if err := m.check(addr, len(b)); err != nil {
		return err
	}
	m.readInto(b, addr)
	return nil
}

// readInto fills b with the bytes starting at addr, which the caller
// has checked.
func (m *Memory) readInto(b []byte, addr uint64) {
	i := 0
	for i < len(b) {
		off := (addr + uint64(i)) & (pageSize - 1)
		p := m.page((addr+uint64(i))>>pageBits, false)
		i += copy(b[i:], p[off:])
	}
}

func negativeLen(n int) error { return fmt.Errorf("vm: negative length %d", n) }

// WriteBytes copies b into memory at addr.
func (m *Memory) WriteBytes(addr uint64, b []byte) error {
	if err := m.check(addr, len(b)); err != nil {
		return err
	}
	i := 0
	for i < len(b) {
		off := (addr + uint64(i)) & (pageSize - 1)
		p := m.page((addr+uint64(i))>>pageBits, true)
		c := copy(p[off:], b[i:])
		i += c
	}
	return nil
}

// Copy moves n bytes from src to dst (handles overlap like memmove:
// the whole source is read before any byte is written). The source is
// checked before the destination; a negative n is an error.
func (m *Memory) Copy(dst, src uint64, n int) error {
	if n < 0 {
		return negativeLen(n)
	}
	if n == 0 {
		return nil
	}
	if err := m.check(src, n); err != nil {
		return err
	}
	b := m.copyBuf
	if n > cap(b) {
		b = make([]byte, n)
		if n <= pageSize {
			m.copyBuf = b
		}
	}
	b = b[:n]
	m.readInto(b, src)
	return m.WriteBytes(dst, b)
}

// Set fills n bytes at dst with v. A zero fill of a page that was never
// written leaves it missing: it reads as zero already.
func (m *Memory) Set(dst uint64, v byte, n int) error {
	if err := m.check(dst, n); err != nil {
		return err
	}
	i := 0
	for i < n {
		off := (dst + uint64(i)) & (pageSize - 1)
		p := m.page((dst+uint64(i))>>pageBits, v != 0)
		end := int(pageSize - off)
		if end > n-i {
			end = n - i
		}
		if &p[0] != &zeroPage[0] {
			seg := p[off : int(off)+end]
			for j := range seg {
				seg[j] = v
			}
		}
		i += end
	}
	return nil
}
