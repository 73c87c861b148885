package layout

import (
	"math/rand"
	"testing"
)

// TestKeyedSourceDeterministic pins the PRF contract: same (key, msg)
// replays the identical stream; any single differing input decorrelates
// it.
func TestKeyedSourceDeterministic(t *testing.T) {
	a := &keyedSource{k0: 1, k1: 2, msg: 3}
	b := &keyedSource{k0: 1, k1: 2, msg: 3}
	for i := 0; i < 64; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("replay diverged at draw %d: %#x vs %#x", i, av, bv)
		}
	}
	variants := []*keyedSource{
		{k0: 9, k1: 2, msg: 3},
		{k0: 1, k1: 9, msg: 3},
		{k0: 1, k1: 2, msg: 9},
	}
	base := &keyedSource{k0: 1, k1: 2, msg: 3}
	first := base.Uint64()
	for i, v := range variants {
		if v.Uint64() == first {
			t.Fatalf("variant %d produced the base stream's first draw", i)
		}
	}
}

func keyedTestFields() []FieldInfo {
	return []FieldInfo{
		{Size: 8, Align: 8},
		{Size: 4, Align: 4},
		{Size: 8, Align: 8, IsFptr: true},
		{Size: 1, Align: 1},
		{Size: 2, Align: 2},
	}
}

// TestGenerateKeyedDeterministic: the derivation is a pure function of
// (fields, cfg, key, msg) — the stateless resolver's entire correctness
// argument.
func TestGenerateKeyedDeterministic(t *testing.T) {
	fields := keyedTestFields()
	cfg := DefaultConfig()
	a, err := GenerateKeyed(fields, cfg, 7, 11, 0xdeadbeef)
	if err != nil {
		t.Fatalf("GenerateKeyed: %v", err)
	}
	b, err := GenerateKeyed(fields, cfg, 7, 11, 0xdeadbeef)
	if err != nil {
		t.Fatalf("GenerateKeyed: %v", err)
	}
	if !a.Equal(b) {
		t.Fatalf("same inputs gave different layouts:\n%v\n%v", a, b)
	}
	c, err := GenerateKeyed(fields, cfg, 7, 11, 0xdeadbef0)
	if err != nil {
		t.Fatalf("GenerateKeyed: %v", err)
	}
	// Different messages usually differ; at minimum they must be valid.
	if c.TotalSize <= 0 {
		t.Fatalf("invalid layout for perturbed msg: %+v", c)
	}
	// Identity mode ignores the key entirely (pinned classes).
	idA, err := GenerateKeyed(fields, Config{Mode: ModeIdentity}, 1, 2, 3)
	if err != nil {
		t.Fatalf("identity GenerateKeyed: %v", err)
	}
	idB, err := GenerateKeyed(fields, Config{Mode: ModeIdentity}, 99, 98, 97)
	if err != nil {
		t.Fatalf("identity GenerateKeyed: %v", err)
	}
	if !idA.Equal(idB) {
		t.Fatalf("identity layout depends on the key")
	}
}

// TestGenerateKeyedVariesAcrossMessages checks the point of the keyed
// PRF: distinct base addresses (messages) select distinct permutations
// often enough to carry entropy.
func TestGenerateKeyedVariesAcrossMessages(t *testing.T) {
	fields := keyedTestFields()
	cfg := DefaultConfig()
	seen := make(map[uint64]bool)
	for msg := uint64(0); msg < 64; msg++ {
		l, err := GenerateKeyed(fields, cfg, 7, 11, msg*64)
		if err != nil {
			t.Fatalf("GenerateKeyed(msg=%d): %v", msg, err)
		}
		seen[l.Hash()] = true
	}
	if len(seen) < 8 {
		t.Fatalf("only %d distinct layouts over 64 messages — PRF not spreading", len(seen))
	}
}

// TestMaxSizeBoundsEveryDerivation property-tests the slab bound: no
// (key, msg) draw and no mode may produce a layout exceeding
// MaxSize(fields, cfg). The stateless allocator and the epoch-rekey
// invariant both stand on this.
func TestMaxSizeBoundsEveryDerivation(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	modes := []Mode{ModeIdentity, ModeFull, ModeCacheLine}
	for trial := 0; trial < 200; trial++ {
		nf := 1 + rng.Intn(8)
		fields := make([]FieldInfo, nf)
		for i := range fields {
			align := 1 << rng.Intn(4)
			fields[i] = FieldInfo{
				Size:   align * (1 + rng.Intn(4)),
				Align:  align,
				IsFptr: rng.Intn(4) == 0,
			}
		}
		cfg := Config{
			Mode:       modes[rng.Intn(len(modes))],
			MinDummies: rng.Intn(3),
			BoobyTraps: rng.Intn(2) == 0,
		}
		cfg.MaxDummies = cfg.MinDummies + rng.Intn(3)
		bound := MaxSize(fields, cfg)
		for draw := 0; draw < 32; draw++ {
			l, err := GenerateKeyed(fields, cfg, rng.Uint64(), rng.Uint64(), rng.Uint64())
			if err != nil {
				t.Fatalf("trial %d draw %d: %v", trial, draw, err)
			}
			if l.TotalSize > bound {
				t.Fatalf("trial %d draw %d: TotalSize %d exceeds MaxSize %d (cfg %+v, fields %+v)",
					trial, draw, l.TotalSize, bound, cfg, fields)
			}
		}
	}
}

// TestKeyedReuseMatchesGenerateKeyed: one re-keyed Keyed deriving into
// one reused layout selects exactly what a fresh GenerateKeyed does,
// and allocates nothing once warm.
func TestKeyedReuseMatchesGenerateKeyed(t *testing.T) {
	fields := keyedTestFields()
	cfg := DefaultConfig()
	var k Keyed
	var l Layout
	for msg := uint64(0); msg < 64; msg++ {
		want, err := GenerateKeyed(fields, cfg, 7, 11, msg*64)
		if err != nil {
			t.Fatal(err)
		}
		if err := k.GenerateInto(&l, fields, cfg, 7, 11, msg*64); err != nil {
			t.Fatal(err)
		}
		if !want.Equal(&l) {
			t.Fatalf("msg %d: reused derivation %s, fresh %s", msg, l.Key(), want.Key())
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := k.GenerateInto(&l, fields, cfg, 7, 11, 0x40); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm keyed derivation allocated %.1f times per call, want 0", allocs)
	}
}
