package layout

import "math/rand"

// Keyed (stateless) layout derivation — the SPAM-style alternative to
// table-backed per-allocation metadata (arXiv 2007.13808): an object's
// permutation is a pure function of a secret key and its base address,
// so the runtime can recompute the layout at access time instead of
// storing it. The permutation itself is the same Fisher–Yates shuffle
// Generate performs (rng.Shuffle); only the randomness source changes —
// a SipHash-style keyed PRF in counter mode replaces the sequential
// run-level stream, making every (key, message) pair an independent,
// reproducible shuffle.

// sipround is one SipHash ARX round.
func sipround(v0, v1, v2, v3 uint64) (uint64, uint64, uint64, uint64) {
	v0 += v1
	v1 = v1<<13 | v1>>51
	v1 ^= v0
	v0 = v0<<32 | v0>>32
	v2 += v3
	v3 = v3<<16 | v3>>48
	v3 ^= v2
	v0 += v3
	v3 = v3<<21 | v3>>43
	v3 ^= v0
	v2 += v1
	v1 = v1<<17 | v1>>47
	v1 ^= v2
	v2 = v2<<32 | v2>>32
	return v0, v1, v2, v3
}

// sipHash24 is SipHash-2-4 over a fixed 16-byte message (m0, m1) under
// the 128-bit key (k0, k1). A fixed-width message avoids the tail
// handling of the general algorithm; the length byte is folded into the
// final block as the spec does.
func sipHash24(k0, k1, m0, m1 uint64) uint64 {
	v0 := k0 ^ 0x736f6d6570736575
	v1 := k1 ^ 0x646f72616e646f6d
	v2 := k0 ^ 0x6c7967656e657261
	v3 := k1 ^ 0x7465646279746573

	v3 ^= m0
	v0, v1, v2, v3 = sipround(v0, v1, v2, v3)
	v0, v1, v2, v3 = sipround(v0, v1, v2, v3)
	v0 ^= m0

	v3 ^= m1
	v0, v1, v2, v3 = sipround(v0, v1, v2, v3)
	v0, v1, v2, v3 = sipround(v0, v1, v2, v3)
	v0 ^= m1

	b := uint64(16) << 56 // message length, final block
	v3 ^= b
	v0, v1, v2, v3 = sipround(v0, v1, v2, v3)
	v0, v1, v2, v3 = sipround(v0, v1, v2, v3)
	v0 ^= b

	v2 ^= 0xff
	v0, v1, v2, v3 = sipround(v0, v1, v2, v3)
	v0, v1, v2, v3 = sipround(v0, v1, v2, v3)
	v0, v1, v2, v3 = sipround(v0, v1, v2, v3)
	v0, v1, v2, v3 = sipround(v0, v1, v2, v3)
	return v0 ^ v1 ^ v2 ^ v3
}

// keyedSource is the keyed PRF as a rand.Source64. The first draw runs
// SipHash-2-4(key, msg) once to whiten (key, message) into a stream
// seed; subsequent draws expand that seed with splitmix64. The secrecy
// of the permutation choice rests entirely on the keyed hash — the
// expansion is a plain PRG, the standard extract-then-expand shape —
// which keeps the per-draw cost at a few ALU ops instead of a full
// SipHash, since the resolver re-derives layouts on the access path.
// It allocates nothing, so a derivation is reproducible from (k0, k1,
// msg) alone.
type keyedSource struct {
	k0, k1 uint64
	msg    uint64
	state  uint64
	primed bool
}

// Uint64 implements rand.Source64.
func (s *keyedSource) Uint64() uint64 {
	if !s.primed {
		s.state = sipHash24(s.k0, s.k1, s.msg, 0)
		s.primed = true
	}
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Int63 implements rand.Source.
func (s *keyedSource) Int63() int64 { return int64(s.Uint64() >> 1) }

// Seed implements rand.Source; the PRF is keyed at construction, so
// reseeding is meaningless and deliberately a no-op.
func (s *keyedSource) Seed(int64) {}

// GenerateKeyed builds the randomized layout that (k0, k1, msg)
// deterministically selects for the given fields: the Fisher–Yates
// shuffle inside Generate runs on the keyed PRF instead of a run-level
// stream. Callers derive msg from the object's base address (and k0/k1
// from the run seed and re-randomization epoch), which is what makes
// the resolution stateless: any party holding the key recomputes the
// same layout from the address alone. Identity (pinned) classes are
// key-independent by definition.
func GenerateKeyed(fields []FieldInfo, cfg Config, k0, k1, msg uint64) (*Layout, error) {
	l := new(Layout)
	if err := new(Keyed).GenerateInto(l, fields, cfg, k0, k1, msg); err != nil {
		return nil, err
	}
	return l, nil
}

// Keyed derives keyed layouts through one PRF and one rand.Rand that it
// re-keys for every derivation, so deriving into a warmed layout
// allocates nothing. The zero value is ready to use; a Keyed is not
// safe for concurrent use.
type Keyed struct {
	src keyedSource
	rng *rand.Rand
}

// GenerateInto is GenerateKeyed writing into dst, with GenerateInto's
// reuse of dst's storage.
func (k *Keyed) GenerateInto(dst *Layout, fields []FieldInfo, cfg Config, k0, k1, msg uint64) error {
	if k.rng == nil {
		k.rng = rand.New(&k.src)
	}
	// rand.Rand keeps no state of its own on the draws generation makes,
	// so re-keying the source restarts the stream a fresh Rand would see.
	k.src = keyedSource{k0: k0, k1: k1, msg: msg}
	return GenerateInto(dst, fields, cfg, k.rng)
}

// MaxSize returns an upper bound on TotalSize over every layout any
// key, message or dummy-count draw can produce for (fields, cfg). The
// stateless resolver sizes heap chunks with it before the base address
// — and therefore the concrete layout — exists, and the epoch-rekey
// path relies on it so any future epoch's layout fits the chunk.
//
// The bound charges each placement unit its worst-case alignment
// padding (align-1 at the item boundary plus align-1 per part) and
// assumes the maximum dummy count with booby traps present; it
// therefore dominates every mode, including the identity and
// cache-line layouts, at the cost of a few bytes of slack.
func MaxSize(fields []FieldInfo, cfg Config) int {
	ds := cfg.dummySize()
	bound, maxAlign := 0, 1
	note := func(a int) {
		if a > maxAlign {
			maxAlign = a
		}
	}
	for _, f := range fields {
		itAlign := f.Align
		if f.IsFptr {
			// Trap dummy fused in front of the function pointer.
			t := ds
			if t < f.Align {
				t = f.Align
			}
			if t > 1 {
				bound += t - 1
			}
			bound += t
			if t > itAlign {
				itAlign = t
			}
		}
		if itAlign > 1 {
			bound += itAlign - 1 // item-boundary alignment
		}
		if f.Align > 1 {
			bound += f.Align - 1 // member-part alignment
		}
		bound += f.Size
		note(itAlign)
	}
	nd := cfg.MaxDummies
	if cfg.MinDummies > nd {
		nd = cfg.MinDummies
	}
	for i := 0; i < nd; i++ {
		if ds > 1 {
			bound += 2 * (ds - 1)
		}
		bound += ds
		note(ds)
	}
	if maxAlign > 1 {
		bound += maxAlign - 1 // trailing struct alignment
	}
	if bound < 1 {
		bound = 1
	}
	return bound
}
