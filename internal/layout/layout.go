// Package layout generates randomized in-object layouts — the
// randomization heart of POLaR (§IV.A).
//
// A Layout maps each original field of a class to a randomized offset.
// Generation permutes member order, optionally inserts dummy members to
// raise entropy, and plants booby-trap dummies directly in front of
// function-pointer members so that a linear overflow reaching the
// function pointer must first corrupt a canary (§IV.A.3, after Crane et
// al.'s booby trapping). A cache-line-bounded mode reproduces the
// partial randomization of Linux randstruct (§II.C) for the static-OLR
// baseline.
package layout

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
)

// Mode selects the permutation strategy.
type Mode int

// Modes. ModeIdentity emits the compiler layout (useful as a control in
// ablation benchmarks).
const (
	ModeIdentity Mode = iota + 1
	ModeFull
	ModeCacheLine
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeIdentity:
		return "identity"
	case ModeFull:
		return "full"
	case ModeCacheLine:
		return "cacheline"
	default:
		return "?"
	}
}

// FieldInfo is the minimal per-member description the generator needs;
// the CIE's Member satisfies it via Adapt.
type FieldInfo struct {
	Size   int
	Align  int
	IsFptr bool
}

// Config controls generation.
type Config struct {
	Mode Mode
	// MinDummies/MaxDummies bound the number of extra dummy members
	// inserted per object ("optionally adding unused member variables to
	// increase the entropy", §III.B).
	MinDummies int
	MaxDummies int
	// BoobyTraps plants a canary dummy immediately before each
	// function-pointer member (§IV.A.3).
	BoobyTraps bool
	// CacheLineSize bounds permutation groups in ModeCacheLine
	// (default 64).
	CacheLineSize int
	// DummySize is the byte size of each dummy slot (default 8).
	DummySize int
}

// DefaultConfig is the configuration used throughout the paper's
// evaluation: full permutation, 1–2 dummies, booby traps on.
func DefaultConfig() Config {
	return Config{Mode: ModeFull, MinDummies: 1, MaxDummies: 2, BoobyTraps: true}
}

func (c *Config) cacheLine() int {
	if c.CacheLineSize <= 0 {
		return 64
	}
	return c.CacheLineSize
}

func (c *Config) dummySize() int {
	if c.DummySize <= 0 {
		return 8
	}
	return c.DummySize
}

// Slot is one randomized layout position.
type Slot struct {
	// Field is the original field index, or -1 for a dummy.
	Field  int
	Offset int
	Size   int
	// Trap marks a dummy carrying a canary checked on free/copy.
	Trap bool
}

// Layout is a concrete randomized object layout.
type Layout struct {
	Slots     []Slot
	Offsets   []int // original field index -> randomized offset
	TotalSize int
	Dummies   int

	hash uint64
}

// Hash is a cheap identity hash used by the layout deduplication table
// ("Polar removes the duplicate metadata when two objects have the same
// randomized memory layout", §V.B). Equal layouts hash equal; collisions
// are resolved with Equal.
func (l *Layout) Hash() uint64 { return l.hash }

// Equal reports structural equality of two layouts.
func (l *Layout) Equal(o *Layout) bool {
	if l.TotalSize != o.TotalSize || len(l.Slots) != len(o.Slots) {
		return false
	}
	for i := range l.Slots {
		if l.Slots[i] != o.Slots[i] {
			return false
		}
	}
	return true
}

// Key renders a canonical identity string (diagnostics and tests; the
// hot dedup path uses Hash/Equal).
func (l *Layout) Key() string { return canonicalKey(l) }

// TrapSlots returns the booby-trap slots.
func (l *Layout) TrapSlots() []Slot {
	var out []Slot
	for _, s := range l.Slots {
		if s.Trap {
			out = append(out, s)
		}
	}
	return out
}

// FieldOffset returns the randomized offset of original field i.
func (l *Layout) FieldOffset(i int) (int, error) {
	if i < 0 || i >= len(l.Offsets) {
		return 0, fmt.Errorf("layout: field %d out of range (%d fields)", i, len(l.Offsets))
	}
	return l.Offsets[i], nil
}

// Clone returns a copy of l that shares no storage with it.
func (l *Layout) Clone() *Layout {
	c := new(Layout)
	l.CopyInto(c)
	return c
}

// CopyInto makes dst a copy of l, hash included, reusing dst's Slots
// and Offsets when they are large enough, so copying into a warmed
// layout allocates nothing.
func (l *Layout) CopyInto(dst *Layout) {
	dst.Slots = append(dst.Slots[:0], l.Slots...)
	dst.Offsets = append(dst.Offsets[:0], l.Offsets...)
	dst.TotalSize, dst.Dummies, dst.hash = l.TotalSize, l.Dummies, l.hash
}

// Generate builds a randomized layout for the given fields.
func Generate(fields []FieldInfo, cfg Config, rng *rand.Rand) (*Layout, error) {
	l := new(Layout)
	if err := GenerateInto(l, fields, cfg, rng); err != nil {
		return nil, err
	}
	return l, nil
}

// GenerateInto is Generate writing into dst. It reuses dst's Slots and
// Offsets when they are large enough, so generating into a warmed
// layout allocates nothing, and it makes exactly Generate's random
// draws, so a seed selects the same layout either way. On error dst is
// left unchanged.
//
// Generation permutes item indices rather than items: item k <
// len(fields) is field k (fused behind its booby trap when traps are
// on), every later item is a dummy. rng.Shuffle's draws depend only on
// the item count, so the permuted indices select exactly the layout a
// shuffle of the items themselves would.
func GenerateInto(dst *Layout, fields []FieldInfo, cfg Config, rng *rand.Rand) error {
	if rng == nil && cfg.Mode != ModeIdentity {
		return fmt.Errorf("layout: nil rng for mode %v", cfg.Mode)
	}
	var buf [64]int32
	switch cfg.Mode {
	case ModeIdentity:
		place(dst, fields, indexOrder(buf[:0], len(fields)), false, 0)
	case ModeFull:
		nd := cfg.MinDummies
		if cfg.MaxDummies > cfg.MinDummies {
			nd += rng.Intn(cfg.MaxDummies - cfg.MinDummies + 1)
		}
		order := indexOrder(buf[:0], len(fields)+max(nd, 0))
		shuffle(rng, order)
		place(dst, fields, order, cfg.BoobyTraps, cfg.dummySize())
	case ModeCacheLine:
		// Members shuffle only within cache-line-sized groups of the
		// original order (randstruct's "partially randomized considering
		// the cache line", §II.C); no dummies or traps in this mode.
		order := indexOrder(buf[:0], len(fields))
		line, start, cum := cfg.cacheLine(), 0, 0
		for i, f := range fields {
			if cum+f.Size > line && i > start {
				shuffle(rng, order[start:i])
				start, cum = i, 0
			}
			cum += f.Size
		}
		shuffle(rng, order[start:])
		place(dst, fields, order, false, 0)
	default:
		return fmt.Errorf("layout: unknown mode %d", cfg.Mode)
	}
	return nil
}

// indexOrder returns the identity order 0..n-1, in buf's storage when
// it fits.
func indexOrder(buf []int32, n int) []int32 {
	order := resize(buf, n)
	for i := range order {
		order[i] = int32(i)
	}
	return order
}

func shuffle(rng *rand.Rand, s []int32) {
	rng.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
}

// place lays the items out in order and fills in dst. Item k <
// len(fields) is field k, preceded by a fused booby trap of max(ds,
// align) bytes when traps is set and the field is a function pointer;
// every later item is a ds-byte dummy. Each item starts at its own
// alignment and the object is padded to the largest.
func place(dst *Layout, fields []FieldInfo, order []int32, traps bool, ds int) {
	nSlots := len(order)
	if traps {
		for _, f := range fields {
			if f.IsFptr {
				nSlots++
			}
		}
	}
	dst.Slots = resize(dst.Slots, nSlots)
	dst.Offsets = resize(dst.Offsets, len(fields))
	dst.Dummies = nSlots - len(fields)
	off, maxAlign, s := 0, 1, 0
	for _, k := range order {
		if int(k) >= len(fields) {
			maxAlign = max(maxAlign, ds)
			off = alignUp(off, ds)
			dst.Slots[s] = Slot{Field: -1, Offset: off, Size: ds}
			s++
			off += ds
			continue
		}
		f := fields[k]
		if traps && f.IsFptr {
			t := max(ds, f.Align)
			maxAlign = max(maxAlign, t)
			off = alignUp(off, t)
			dst.Slots[s] = Slot{Field: -1, Offset: off, Size: t, Trap: true}
			s++
			off += t
		} else {
			maxAlign = max(maxAlign, f.Align)
		}
		off = alignUp(off, f.Align)
		dst.Slots[s] = Slot{Field: int(k), Offset: off, Size: f.Size}
		dst.Offsets[k] = off
		s++
		off += f.Size
	}
	dst.TotalSize = alignUp(off, maxAlign)
	if dst.TotalSize == 0 {
		dst.TotalSize = 1
	}
	dst.hash = slotHash(dst)
}

// resize returns s with length n, reusing its storage when large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

func canonicalKey(l *Layout) string {
	var b strings.Builder
	for _, s := range l.Slots {
		fmt.Fprintf(&b, "%d@%d+%d", s.Field, s.Offset, s.Size)
		if s.Trap {
			b.WriteByte('t')
		}
		b.WriteByte(';')
	}
	fmt.Fprintf(&b, "=%d", l.TotalSize)
	return b.String()
}

// EntropyBits estimates the layout entropy for a class under cfg: the
// base-2 log of the number of distinct placements (item permutations ×
// dummy count choices). This is the "randomness entropy" the dummy
// members increase (§IV.A.3).
func EntropyBits(nFields, nFptrs int, cfg Config) float64 {
	switch cfg.Mode {
	case ModeIdentity:
		return 0
	case ModeCacheLine:
		// Approximation: permutations within one line of all fields.
		return lgFactorial(nFields)
	}
	choices := float64(cfg.MaxDummies - cfg.MinDummies + 1)
	// Booby traps fuse with their fptr, so items = fields + dummies.
	bits := 0.0
	for d := cfg.MinDummies; d <= cfg.MaxDummies; d++ {
		items := nFields + d
		b := lgFactorial(items)
		if b > bits {
			bits = b
		}
	}
	if choices > 1 {
		bits += math.Log2(choices)
	}
	return bits
}

func lgFactorial(n int) float64 {
	s := 0.0
	for i := 2; i <= n; i++ {
		s += math.Log2(float64(i))
	}
	return s
}

func alignUp(n, a int) int {
	if a <= 1 {
		return n
	}
	return (n + a - 1) / a * a
}

// slotHash is FNV-1a over the slot tuples plus total size.
func slotHash(l *Layout) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		h = (h ^ v) * 1099511628211
	}
	for _, s := range l.Slots {
		mix(uint64(uint32(s.Field + 1)))
		mix(uint64(s.Offset))
		mix(uint64(s.Size))
		if s.Trap {
			mix(0x7472)
		}
	}
	mix(uint64(l.TotalSize))
	return h
}
