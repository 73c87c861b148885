// Package heap implements the simulated heap allocator underneath the
// POLaR virtual machine.
//
// The allocator mimics the behaviour that matters for the paper's
// security experiments: freed chunks are recycled last-in-first-out per
// size class, so a use-after-free attacker who frees an object and
// immediately allocates a same-sized buffer gets the same address back —
// exactly the reallocation primitive the paper's §III.A.2 exploit
// scenario requires. An optional quarantine delays reuse, modelling the
// redzone-style mitigations discussed in §VII.C.
package heap

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"polar/internal/telemetry"
)

// Error sentinels. Callers match with errors.Is.
var (
	ErrOutOfMemory = errors.New("heap: out of memory")
	ErrInvalidFree = errors.New("heap: free of non-allocated address")
	ErrDoubleFree  = errors.New("heap: double free")
	ErrBadSize     = errors.New("heap: invalid allocation size")
)

// sizeClasses are the chunk sizes the allocator hands out. Requests are
// rounded up to the nearest class; larger requests get exact-size
// "large" chunks.
var sizeClasses = []int{16, 32, 48, 64, 96, 128, 192, 256, 384, 512, 1024, 2048, 4096, 8192, 16384, 32768}

// Stats holds allocator counters.
type Stats struct {
	Allocs     uint64
	Frees      uint64
	BytesLive  uint64
	BytesPeak  uint64
	Reuses     uint64 // allocations served from a free list
	FreshCarve uint64 // allocations carved from fresh arena space
}

type chunk struct {
	addr uint64
	size int // usable size (== size class or exact for large)
	live bool
}

// Allocator is a segregated-freelist bump allocator over a flat address
// range [base, base+limit). The zero value is not usable; call New.
type Allocator struct {
	base    uint64
	next    uint64
	limit   uint64
	chunks  map[uint64]*chunk // addr -> chunk (live and freed)
	free    map[int][]uint64  // size class -> LIFO free stack
	largeFr map[int][]uint64  // exact size -> free stack for large chunks
	// large holds every large chunk (live and freed) in ascending
	// address order: chunks are carved upward and never move, so
	// appending at carve time keeps it sorted for FindChunk.
	large   []*chunk
	quarLen int      // quarantine length (0 = immediate reuse)
	quarQ   []uint64 // FIFO quarantine of freed addrs
	// rng, when non-nil, randomizes placement: free-list picks are
	// uniform instead of LIFO and fresh carves get random gaps — the
	// inter-chunk (heap-layout) randomization of §VII.B, implemented
	// here to demonstrate its orthogonality to in-object randomization.
	rng   *rand.Rand
	stats Stats

	// sizeHist, when non-nil, observes the requested size of every
	// allocation (instrumented or raw — everything funnels through
	// Alloc) into the unified metrics registry.
	sizeHist *telemetry.Histogram
}

// Option configures an Allocator.
type Option func(*Allocator)

// WithQuarantine delays reuse of freed chunks until n further frees have
// occurred (0 disables, the default).
func WithQuarantine(n int) Option {
	return func(a *Allocator) { a.quarLen = n }
}

// WithRandomPlacement enables inter-chunk randomization (§VII.B): freed
// chunks are reused in random order and fresh chunks are carved with
// random gaps, making the relative distance between allocations
// unpredictable without any code instrumentation.
func WithRandomPlacement(seed int64) Option {
	return func(a *Allocator) { a.rng = rand.New(rand.NewSource(seed)) }
}

// WithTelemetry attaches the observability layer: the allocator feeds
// the allocation-size histogram. Disabled telemetry (the default) costs
// one branch per allocation.
func WithTelemetry(t *telemetry.Telemetry) Option {
	return func(a *Allocator) {
		if t != nil {
			a.sizeHist = t.Registry.Histogram(telemetry.MetricHeapAllocSize, telemetry.AllocSizeBuckets)
		}
	}
}

// New returns an allocator managing [base, base+limit).
func New(base, limit uint64, opts ...Option) *Allocator {
	a := &Allocator{
		base:    base,
		next:    base,
		limit:   base + limit,
		chunks:  make(map[uint64]*chunk),
		free:    make(map[int][]uint64),
		largeFr: make(map[int][]uint64),
	}
	for _, o := range opts {
		o(a)
	}
	return a
}

func classFor(n int) int {
	for _, c := range sizeClasses {
		if n <= c {
			return c
		}
	}
	return n // large: exact size, 16-aligned by caller path
}

// Alloc returns the base address of a fresh chunk of at least size
// bytes. The chunk contents are NOT zeroed when recycled — deliberate,
// so stale data survives into re-allocations as on a real heap.
func (a *Allocator) Alloc(size int) (uint64, error) {
	if size <= 0 {
		return 0, fmt.Errorf("%w: %d", ErrBadSize, size)
	}
	if a.sizeHist != nil {
		a.sizeHist.Observe(float64(size))
	}
	cls := classFor(size)
	// Serve from free list first (LIFO).
	var list map[int][]uint64
	if cls > sizeClasses[len(sizeClasses)-1] {
		cls = alignUp16(cls)
		list = a.largeFr
	} else {
		list = a.free
	}
	if st := list[cls]; len(st) > 0 {
		pick := len(st) - 1
		if a.rng != nil {
			pick = a.rng.Intn(len(st))
		}
		addr := st[pick]
		st[pick] = st[len(st)-1]
		list[cls] = st[:len(st)-1]
		c := a.chunks[addr]
		c.live = true
		a.stats.Allocs++
		a.stats.Reuses++
		a.addLive(uint64(c.size))
		return addr, nil
	}
	// Carve fresh space (with a random inter-chunk gap when placement
	// randomization is on).
	addr := alignUp16u(a.next)
	if a.rng != nil {
		addr += uint64(a.rng.Intn(8)) * 16
	}
	if addr+uint64(cls) > a.limit {
		return 0, fmt.Errorf("%w: need %d bytes", ErrOutOfMemory, cls)
	}
	a.next = addr + uint64(cls)
	c := &chunk{addr: addr, size: cls, live: true}
	a.chunks[addr] = c
	if cls > sizeClasses[len(sizeClasses)-1] {
		a.large = append(a.large, c)
	}
	a.stats.Allocs++
	a.stats.FreshCarve++
	a.addLive(uint64(cls))
	return addr, nil
}

func (a *Allocator) addLive(n uint64) {
	a.stats.BytesLive += n
	if a.stats.BytesLive > a.stats.BytesPeak {
		a.stats.BytesPeak = a.stats.BytesLive
	}
}

// Free releases the chunk at addr.
func (a *Allocator) Free(addr uint64) error {
	c, ok := a.chunks[addr]
	if !ok {
		return fmt.Errorf("%w: 0x%x", ErrInvalidFree, addr)
	}
	if !c.live {
		return fmt.Errorf("%w: 0x%x", ErrDoubleFree, addr)
	}
	c.live = false
	a.stats.Frees++
	a.stats.BytesLive -= uint64(c.size)
	if a.quarLen > 0 {
		a.quarQ = append(a.quarQ, addr)
		if len(a.quarQ) > a.quarLen {
			rel := a.quarQ[0]
			a.quarQ = a.quarQ[1:]
			a.release(a.chunks[rel])
		}
		return nil
	}
	a.release(c)
	return nil
}

func (a *Allocator) release(c *chunk) {
	if c.size > sizeClasses[len(sizeClasses)-1] {
		a.largeFr[c.size] = append(a.largeFr[c.size], c.addr)
	} else {
		a.free[c.size] = append(a.free[c.size], c.addr)
	}
}

// SizeOf returns the usable size of the chunk at addr and whether it is
// currently live. ok is false if addr is not a chunk base.
func (a *Allocator) SizeOf(addr uint64) (size int, live, ok bool) {
	c, found := a.chunks[addr]
	if !found {
		return 0, false, false
	}
	return c.size, c.live, true
}

// FindChunk locates the live or freed chunk containing addr (any
// interior address, not only chunk bases). Large chunks are found by a
// binary search over their carve order; every other chunk is at most
// the largest size class long, so a probe backwards over 16-byte
// alignment slots, bounded by that class, finds it. It is intended for
// diagnostics and taint attribution, not hot paths.
func (a *Allocator) FindChunk(addr uint64) (base uint64, size int, live, ok bool) {
	lo, hi := 0, len(a.large)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c := a.large[mid]; addr >= c.addr+uint64(c.size) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(a.large) && a.large[lo].addr <= addr {
		c := a.large[lo]
		return c.addr, c.size, c.live, true
	}
	probe := addr &^ 15
	maxBack := uint64(sizeClasses[len(sizeClasses)-1])
	for back := uint64(0); back <= maxBack; back += 16 {
		if probe < back+a.base {
			break
		}
		p := probe - back
		if c, found := a.chunks[p]; found {
			if addr < c.addr+uint64(c.size) {
				return c.addr, c.size, c.live, true
			}
			return 0, 0, false, false
		}
	}
	return 0, 0, false, false
}

// ChunkInfo describes one chunk for diagnostics (the heap-neighborhood
// section of forensic dumps).
type ChunkInfo struct {
	Base uint64
	Size int
	Live bool
}

// Adjacent returns the chunk containing addr (when there is one)
// together with up to k address-adjacent chunks on each side, in
// ascending base order. It sorts the full chunk table, so like
// FindChunk it is for diagnostics — the violation path — never hot
// paths.
func (a *Allocator) Adjacent(addr uint64, k int) []ChunkInfo {
	if len(a.chunks) == 0 || k < 0 {
		return nil
	}
	bases := make([]uint64, 0, len(a.chunks))
	for b := range a.chunks {
		bases = append(bases, b)
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })
	// idx: the chunk containing addr, or the nearest chunk above it.
	idx := sort.Search(len(bases), func(i int) bool {
		c := a.chunks[bases[i]]
		return addr < c.addr+uint64(c.size)
	})
	if idx == len(bases) {
		idx = len(bases) - 1 // addr above every chunk: anchor on the top
	}
	lo, hi := idx-k, idx+k+1
	if lo < 0 {
		lo = 0
	}
	if hi > len(bases) {
		hi = len(bases)
	}
	out := make([]ChunkInfo, 0, hi-lo)
	for _, b := range bases[lo:hi] {
		c := a.chunks[b]
		out = append(out, ChunkInfo{Base: c.addr, Size: c.size, Live: c.live})
	}
	return out
}

// Contains reports whether addr lies in the managed range.
func (a *Allocator) Contains(addr uint64) bool { return addr >= a.base && addr < a.limit }

// Stats returns a copy of the allocator counters.
func (a *Allocator) Stats() Stats { return a.stats }

// String renders the counters as a one-line key=value summary.
func (s Stats) String() string {
	return fmt.Sprintf("allocs=%d frees=%d bytes-live=%d bytes-peak=%d reuses=%d fresh-carves=%d",
		s.Allocs, s.Frees, s.BytesLive, s.BytesPeak, s.Reuses, s.FreshCarve)
}

// MarshalJSON implements json.Marshaler with stable snake_case keys.
func (s Stats) MarshalJSON() ([]byte, error) {
	return json.Marshal(map[string]uint64{
		"allocs":       s.Allocs,
		"frees":        s.Frees,
		"bytes_live":   s.BytesLive,
		"bytes_peak":   s.BytesPeak,
		"reuses":       s.Reuses,
		"fresh_carves": s.FreshCarve,
	})
}

// Publish snapshots the counters into a telemetry registry under the
// "heap." prefix.
func (s Stats) Publish(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	reg.Counter("heap.allocs").Set(s.Allocs)
	reg.Counter("heap.frees").Set(s.Frees)
	reg.Counter("heap.reuses").Set(s.Reuses)
	reg.Counter("heap.fresh_carves").Set(s.FreshCarve)
	reg.Gauge("heap.bytes_live").Set(float64(s.BytesLive))
	reg.Gauge("heap.bytes_peak").Set(float64(s.BytesPeak))
}

// LiveCount returns the number of live chunks (O(n); for tests).
func (a *Allocator) LiveCount() int {
	n := 0
	for _, c := range a.chunks {
		if c.live {
			n++
		}
	}
	return n
}

// Reset returns the allocator to its initial empty state, keeping
// configuration.
func (a *Allocator) Reset() {
	a.next = a.base
	a.chunks = make(map[uint64]*chunk)
	a.free = make(map[int][]uint64)
	a.largeFr = make(map[int][]uint64)
	a.large = nil
	a.quarQ = nil
	a.stats = Stats{}
}

func alignUp16(n int) int { return (n + 15) &^ 15 }

func alignUp16u(n uint64) uint64 { return (n + 15) &^ 15 }
