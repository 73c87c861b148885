package layout

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func fieldsFixture() []FieldInfo {
	return []FieldInfo{
		{Size: 8, Align: 8, IsFptr: true}, // vtable
		{Size: 4, Align: 4},
		{Size: 4, Align: 4},
		{Size: 8, Align: 8},
		{Size: 2, Align: 2},
		{Size: 1, Align: 1},
	}
}

func randomFields(rng *rand.Rand) []FieldInfo {
	n := 1 + rng.Intn(12)
	out := make([]FieldInfo, n)
	for i := range out {
		switch rng.Intn(5) {
		case 0:
			out[i] = FieldInfo{Size: 1, Align: 1}
		case 1:
			out[i] = FieldInfo{Size: 2, Align: 2}
		case 2:
			out[i] = FieldInfo{Size: 4, Align: 4}
		case 3:
			out[i] = FieldInfo{Size: 8, Align: 8}
		default:
			out[i] = FieldInfo{Size: 8, Align: 8, IsFptr: true}
		}
	}
	return out
}

// checkWellFormed asserts the core layout invariants: every field has a
// slot, slots are aligned, non-overlapping, and within TotalSize.
func checkWellFormed(t *testing.T, fields []FieldInfo, l *Layout) {
	t.Helper()
	if len(l.Offsets) != len(fields) {
		t.Fatalf("offsets len %d != fields %d", len(l.Offsets), len(fields))
	}
	seen := make(map[int]bool)
	for _, s := range l.Slots {
		if s.Offset < 0 || s.Offset+s.Size > l.TotalSize {
			t.Fatalf("slot %+v outside [0,%d)", s, l.TotalSize)
		}
		if s.Field >= 0 {
			if seen[s.Field] {
				t.Fatalf("field %d placed twice", s.Field)
			}
			seen[s.Field] = true
			if l.Offsets[s.Field] != s.Offset {
				t.Fatalf("offsets[%d]=%d but slot at %d", s.Field, l.Offsets[s.Field], s.Offset)
			}
			if s.Offset%fields[s.Field].Align != 0 {
				t.Fatalf("field %d misaligned at %d (align %d)", s.Field, s.Offset, fields[s.Field].Align)
			}
		}
	}
	for i := range fields {
		if !seen[i] {
			t.Fatalf("field %d not placed", i)
		}
	}
	for i := range l.Slots {
		for j := i + 1; j < len(l.Slots); j++ {
			a, b := l.Slots[i], l.Slots[j]
			if a.Offset < b.Offset+b.Size && b.Offset < a.Offset+a.Size {
				t.Fatalf("slots overlap: %+v %+v", a, b)
			}
		}
	}
}

func TestIdentityMatchesCompilerLayout(t *testing.T) {
	fields := fieldsFixture()
	l, err := Generate(fields, Config{Mode: ModeIdentity}, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkWellFormed(t, fields, l)
	want := []int{0, 8, 12, 16, 24, 26}
	for i, w := range want {
		if l.Offsets[i] != w {
			t.Errorf("identity offset[%d] = %d, want %d", i, l.Offsets[i], w)
		}
	}
	if l.Dummies != 0 {
		t.Errorf("identity layout has %d dummies", l.Dummies)
	}
}

func TestFullModeInsertsTrapBeforeFptr(t *testing.T) {
	fields := fieldsFixture()
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		l, err := Generate(fields, DefaultConfig(), rng)
		if err != nil {
			t.Fatal(err)
		}
		checkWellFormed(t, fields, l)
		// The fptr (field 0) must be directly preceded by a trap slot.
		var trapEnd = -1
		for _, s := range l.Slots {
			if s.Trap {
				if s.Offset+s.Size == l.Offsets[0] {
					trapEnd = s.Offset + s.Size
				}
			}
		}
		if trapEnd != l.Offsets[0] {
			t.Fatalf("trial %d: no trap adjacent to fptr at %d; slots %+v", trial, l.Offsets[0], l.Slots)
		}
		if l.Dummies < 1 {
			t.Fatalf("trial %d: expected dummies, got %d", trial, l.Dummies)
		}
	}
}

func TestFullModeProducesDiverseLayouts(t *testing.T) {
	fields := fieldsFixture()
	rng := rand.New(rand.NewSource(11))
	seen := make(map[uint64]bool)
	const n = 200
	for i := 0; i < n; i++ {
		l, err := Generate(fields, DefaultConfig(), rng)
		if err != nil {
			t.Fatal(err)
		}
		seen[l.Hash()] = true
	}
	if len(seen) < n/3 {
		t.Fatalf("only %d distinct layouts in %d draws; entropy too low", len(seen), n)
	}
}

func TestCacheLineModeKeepsFieldsWithinLineGroups(t *testing.T) {
	// 16 i32 fields: two 64-byte groups of 16... (16 × 4 = 64 per group).
	var fields []FieldInfo
	for i := 0; i < 32; i++ {
		fields = append(fields, FieldInfo{Size: 4, Align: 4})
	}
	rng := rand.New(rand.NewSource(5))
	l, err := Generate(fields, Config{Mode: ModeCacheLine}, rng)
	if err != nil {
		t.Fatal(err)
	}
	checkWellFormed(t, fields, l)
	// Fields 0..15 (first 64 bytes statically) must stay in [0,64).
	for i := 0; i < 16; i++ {
		if l.Offsets[i] >= 64 {
			t.Fatalf("field %d escaped its cache line: offset %d", i, l.Offsets[i])
		}
	}
	for i := 16; i < 32; i++ {
		if l.Offsets[i] < 64 {
			t.Fatalf("field %d escaped its cache line: offset %d", i, l.Offsets[i])
		}
	}
	if l.Dummies != 0 {
		t.Errorf("cache-line mode inserted %d dummies", l.Dummies)
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate(fieldsFixture(), DefaultConfig(), nil); err == nil {
		t.Error("nil rng accepted for randomizing mode")
	}
	if _, err := Generate(fieldsFixture(), Config{Mode: 99}, rand.New(rand.NewSource(1))); err == nil {
		t.Error("unknown mode accepted")
	}
}

func TestHashAndEqualAgree(t *testing.T) {
	fields := fieldsFixture()
	rng := rand.New(rand.NewSource(17))
	var layouts []*Layout
	for i := 0; i < 100; i++ {
		l, err := Generate(fields, DefaultConfig(), rng)
		if err != nil {
			t.Fatal(err)
		}
		layouts = append(layouts, l)
	}
	for i := range layouts {
		for j := range layouts {
			eq := layouts[i].Equal(layouts[j])
			keyEq := layouts[i].Key() == layouts[j].Key()
			if eq != keyEq {
				t.Fatalf("Equal=%v but Key equality=%v for %d,%d", eq, keyEq, i, j)
			}
			if eq && layouts[i].Hash() != layouts[j].Hash() {
				t.Fatalf("equal layouts with different hashes")
			}
		}
	}
}

func TestFieldOffsetBounds(t *testing.T) {
	l, err := Generate(fieldsFixture(), Config{Mode: ModeIdentity}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.FieldOffset(-1); err == nil {
		t.Error("negative index accepted")
	}
	if _, err := l.FieldOffset(99); err == nil {
		t.Error("out-of-range index accepted")
	}
}

func TestTrapSlots(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	l, err := Generate(fieldsFixture(), DefaultConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	traps := l.TrapSlots()
	if len(traps) != 1 {
		t.Fatalf("trap slots = %d, want 1 (one fptr)", len(traps))
	}
	if !traps[0].Trap || traps[0].Field != -1 {
		t.Fatalf("trap slot malformed: %+v", traps[0])
	}
}

func TestEntropyBits(t *testing.T) {
	if b := EntropyBits(6, 1, Config{Mode: ModeIdentity}); b != 0 {
		t.Errorf("identity entropy = %f, want 0", b)
	}
	full := EntropyBits(6, 1, DefaultConfig())
	if full < 9 { // 8! = 40320 ≈ 15.3 bits with 2 dummies
		t.Errorf("full entropy = %f bits, want >= 9", full)
	}
	line := EntropyBits(6, 1, Config{Mode: ModeCacheLine})
	if line <= 0 || line >= full {
		t.Errorf("cache-line entropy = %f, want in (0, %f)", line, full)
	}
	more := EntropyBits(6, 1, Config{Mode: ModeFull, MinDummies: 3, MaxDummies: 5, BoobyTraps: true})
	if more <= full {
		t.Errorf("more dummies should raise entropy: %f <= %f", more, full)
	}
}

// TestGenerateWellFormedQuick: layouts for random field sets under
// random configurations always satisfy the structural invariants.
func TestGenerateWellFormedQuick(t *testing.T) {
	prop := func(seed int64, modeSel, dmin, dmax uint8, traps bool) bool {
		rng := rand.New(rand.NewSource(seed))
		fields := randomFields(rng)
		cfg := Config{
			Mode:       []Mode{ModeFull, ModeCacheLine, ModeIdentity}[modeSel%3],
			MinDummies: int(dmin % 4),
			BoobyTraps: traps,
		}
		cfg.MaxDummies = cfg.MinDummies + int(dmax%3)
		l, err := Generate(fields, cfg, rng)
		if err != nil {
			return false
		}
		// Inline the well-formedness checks (quick can't use t.Fatalf).
		if len(l.Offsets) != len(fields) {
			return false
		}
		placed := make(map[int]bool)
		for _, s := range l.Slots {
			if s.Offset < 0 || s.Offset+s.Size > l.TotalSize {
				return false
			}
			if s.Field >= 0 {
				if placed[s.Field] || s.Offset%fields[s.Field].Align != 0 {
					return false
				}
				placed[s.Field] = true
			}
		}
		if len(placed) != len(fields) {
			return false
		}
		for i := range l.Slots {
			for j := i + 1; j < len(l.Slots); j++ {
				a, b := l.Slots[i], l.Slots[j]
				if a.Offset < b.Offset+b.Size && b.Offset < a.Offset+a.Size {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestLayoutSizeBounded: randomization never more than roughly doubles
// the object (static size + dummies + traps + padding).
func TestLayoutSizeBounded(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		fields := randomFields(rng)
		static, err := Generate(fields, Config{Mode: ModeIdentity}, nil)
		if err != nil {
			return false
		}
		l, err := Generate(fields, DefaultConfig(), rng)
		if err != nil {
			return false
		}
		nFptr := 0
		for _, f := range fields {
			if f.IsFptr {
				nFptr++
			}
		}
		// Upper bound: static + dummies(2×8) + traps(nFptr×8) + per-item
		// alignment waste (≤ 8 per item).
		bound := static.TotalSize + 16 + nFptr*8 + (len(fields)+2+nFptr)*8
		return l.TotalSize <= bound
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestFptrPositionDistribution is the Fig. 2 claim quantified: across
// many allocations the function pointer's offset is spread over many
// positions, not biased to one or two.
func TestFptrPositionDistribution(t *testing.T) {
	fields := fieldsFixture()
	rng := rand.New(rand.NewSource(23))
	positions := make(map[int]int)
	const draws = 2000
	for i := 0; i < draws; i++ {
		l, err := Generate(fields, DefaultConfig(), rng)
		if err != nil {
			t.Fatal(err)
		}
		positions[l.Offsets[0]]++
	}
	if len(positions) < 4 {
		t.Fatalf("fptr landed on only %d distinct offsets in %d draws", len(positions), draws)
	}
	// No single position may dominate (a strong bias would let an
	// attacker bet on the most likely offset).
	for off, n := range positions {
		if float64(n)/draws > 0.5 {
			t.Fatalf("offset %d holds %.0f%% of allocations — distribution too biased", off, 100*float64(n)/draws)
		}
	}
}

// TestGenerateIntoWarmAllocatesNothing: generating into a layout whose
// storage already fits the largest draw reuses it — the hardened
// allocation path generates every layout this way.
func TestGenerateIntoWarmAllocatesNothing(t *testing.T) {
	fields := fieldsFixture()
	rng := rand.New(rand.NewSource(1))
	var l Layout
	widest := Config{Mode: ModeFull, MinDummies: 2, MaxDummies: 2, BoobyTraps: true}
	if err := GenerateInto(&l, fields, widest, rng); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	allocs := testing.AllocsPerRun(200, func() {
		if err := GenerateInto(&l, fields, cfg, rng); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("GenerateInto into a warmed layout allocated %.1f times per call, want 0", allocs)
	}
	checkWellFormed(t, fields, &l)
}

// TestGenerateIntoMatchesGenerate: the same stream state yields the
// same layout whether it is generated fresh or into reused storage,
// including storage left over from a larger class.
func TestGenerateIntoMatchesGenerate(t *testing.T) {
	rngA := rand.New(rand.NewSource(5))
	rngB := rand.New(rand.NewSource(5))
	shapes := rand.New(rand.NewSource(6))
	var reused Layout
	for i := 0; i < 500; i++ {
		fields := randomFields(shapes)
		cfg := []Config{DefaultConfig(), {Mode: ModeCacheLine}, {Mode: ModeIdentity}}[i%3]
		want, err := Generate(fields, cfg, rngA)
		if err != nil {
			t.Fatal(err)
		}
		if err := GenerateInto(&reused, fields, cfg, rngB); err != nil {
			t.Fatal(err)
		}
		if !want.Equal(&reused) || want.Hash() != reused.Hash() || want.Dummies != reused.Dummies {
			t.Fatalf("draw %d: GenerateInto %s, Generate %s", i, reused.Key(), want.Key())
		}
		for f := range fields {
			if want.Offsets[f] != reused.Offsets[f] {
				t.Fatalf("draw %d: field %d at %d, want %d", i, f, reused.Offsets[f], want.Offsets[f])
			}
		}
	}
}

// TestCloneSharesNothing: a clone is Equal to its source and survives
// the source being regenerated in place.
func TestCloneSharesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var l Layout
	if err := GenerateInto(&l, fieldsFixture(), DefaultConfig(), rng); err != nil {
		t.Fatal(err)
	}
	c := l.Clone()
	key := c.Key()
	if !c.Equal(&l) || c.Hash() != l.Hash() {
		t.Fatal("clone differs from its source")
	}
	for i := 0; i < 20; i++ {
		if err := GenerateInto(&l, fieldsFixture(), DefaultConfig(), rng); err != nil {
			t.Fatal(err)
		}
	}
	if c.Key() != key {
		t.Fatalf("clone changed with its source: %s, was %s", c.Key(), key)
	}
}

// TestCopyIntoReusesStorage: copying into a warmed layout allocates
// nothing and yields a layout Equal to the source with the same hash
// and dummy count, whether the destination's storage was left by a
// wider or a narrower class, and the copy shares no storage with its
// source.
func TestCopyIntoReusesStorage(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	shapes := rand.New(rand.NewSource(8))
	var src, dst Layout
	for i := 0; i < 200; i++ {
		if err := GenerateInto(&src, randomFields(shapes), DefaultConfig(), rng); err != nil {
			t.Fatal(err)
		}
		src.CopyInto(&dst)
		if !dst.Equal(&src) || dst.Hash() != src.Hash() || dst.Dummies != src.Dummies ||
			!slices.Equal(dst.Offsets, src.Offsets) {
			t.Fatalf("copy %d: got %s, want %s", i, dst.Key(), src.Key())
		}
	}
	key := dst.Key()
	if err := GenerateInto(&src, fieldsFixture(), DefaultConfig(), rng); err != nil {
		t.Fatal(err)
	}
	if dst.Key() != key {
		t.Fatalf("copy changed with its source: %s, was %s", dst.Key(), key)
	}
	src.CopyInto(&dst)
	if allocs := testing.AllocsPerRun(100, func() { src.CopyInto(&dst) }); allocs != 0 {
		t.Fatalf("CopyInto a warmed layout allocated %.1f times per call, want 0", allocs)
	}
}
