package layout

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the committed generator golden")

// goldenShapes are the class shapes the generator golden pins: empty,
// single-member, the fixture's vtable class, mixed small members,
// several function pointers, over-aligned and odd-sized members, the
// two-line cache-line class, and one class wider than 64 placement
// units.
func goldenShapes() []struct {
	name   string
	fields []FieldInfo
} {
	var wide []FieldInfo
	for i := 0; i < 70; i++ {
		switch i % 5 {
		case 0:
			wide = append(wide, FieldInfo{Size: 8, Align: 8, IsFptr: true})
		case 1, 3:
			wide = append(wide, FieldInfo{Size: 4, Align: 4})
		case 2:
			wide = append(wide, FieldInfo{Size: 1, Align: 1})
		default:
			wide = append(wide, FieldInfo{Size: 8, Align: 8})
		}
	}
	var lines []FieldInfo
	for i := 0; i < 32; i++ {
		lines = append(lines, FieldInfo{Size: 4, Align: 4})
	}
	return []struct {
		name   string
		fields []FieldInfo
	}{
		{"empty", nil},
		{"one", []FieldInfo{{Size: 8, Align: 8}}},
		{"vtable6", fieldsFixture()},
		{"small", []FieldInfo{{Size: 1, Align: 1}, {Size: 2, Align: 2}, {Size: 1, Align: 1}, {Size: 4, Align: 4}, {Size: 2, Align: 2}}},
		{"fptrs", []FieldInfo{{Size: 8, Align: 8, IsFptr: true}, {Size: 4, Align: 4}, {Size: 8, Align: 8, IsFptr: true}, {Size: 8, Align: 8, IsFptr: true}, {Size: 1, Align: 1}}},
		{"odd", []FieldInfo{{Size: 3, Align: 1}, {Size: 16, Align: 16, IsFptr: true}, {Size: 12, Align: 4}, {Size: 96, Align: 8}, {Size: 2, Align: 2}}},
		{"lines32", lines},
		{"wide70", wide},
	}
}

// goldenConfigs are the generator configurations the golden pins.
var goldenConfigs = []struct {
	name string
	cfg  Config
}{
	{"identity", Config{Mode: ModeIdentity}},
	{"full", DefaultConfig()},
	{"full-notraps", Config{Mode: ModeFull, MinDummies: 1, MaxDummies: 2}},
	{"full-nodummies", Config{Mode: ModeFull, BoobyTraps: true}},
	{"full-wide", Config{Mode: ModeFull, MinDummies: 3, MaxDummies: 5, BoobyTraps: true, DummySize: 4}},
	{"full-fixed", Config{Mode: ModeFull, MinDummies: 2, MaxDummies: 1, BoobyTraps: true}},
	{"cacheline", Config{Mode: ModeCacheLine, MinDummies: 1, MaxDummies: 2, BoobyTraps: true}},
	{"cacheline16", Config{Mode: ModeCacheLine, CacheLineSize: 16}},
}

var goldenSeeds = []int64{1, 7919}

// goldenDraws is how many layouts each seeded stream generates before
// its state is sampled.
const goldenDraws = 2

// renderGenerateGolden renders every pinned derivation: for each shape,
// configuration and seed, the Key of each layout drawn from one seeded
// stream, then the stream's next Int63 (which pins how much randomness
// generation consumed); then keyed derivations for a few (key, message)
// pairs.
func renderGenerateGolden(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	for _, sh := range goldenShapes() {
		for _, gc := range goldenConfigs {
			for _, seed := range goldenSeeds {
				rng := rand.New(rand.NewSource(seed))
				fmt.Fprintf(&b, "%s %s seed=%d\n", sh.name, gc.name, seed)
				for d := 0; d < goldenDraws; d++ {
					l, err := Generate(sh.fields, gc.cfg, rng)
					if err != nil {
						t.Fatalf("%s %s seed %d: %v", sh.name, gc.name, seed, err)
					}
					fmt.Fprintf(&b, "  %s\n", l.Key())
				}
				fmt.Fprintf(&b, "  next=%d\n", rng.Int63())
			}
			for _, k := range [][3]uint64{{1, 2, 3}, {0x9e3779b97f4a7c15, 7, 0x4000_0040}} {
				l, err := GenerateKeyed(sh.fields, gc.cfg, k[0], k[1], k[2])
				if err != nil {
					t.Fatalf("%s %s keyed %v: %v", sh.name, gc.name, k, err)
				}
				fmt.Fprintf(&b, "%s %s keyed=%#x/%#x/%#x\n  %s\n", sh.name, gc.name, k[0], k[1], k[2], l.Key())
			}
		}
	}
	return b.String()
}

// TestGenerateGolden pins "same seed, same bytes" for the generator
// itself: every layout and the RNG state after generation, across the
// identity, full and cache-line modes and keyed derivation. Any change
// to which random draws generation makes, or how it places slots, shows
// up as a diff. Regenerate with:
// go test ./internal/layout -run TestGenerateGolden -update
func TestGenerateGolden(t *testing.T) {
	got := renderGenerateGolden(t)
	golden := filepath.Join("testdata", "generate.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if string(want) != got {
		wl, gl := strings.Split(string(want), "\n"), strings.Split(got, "\n")
		for i := 0; i < len(wl) && i < len(gl); i++ {
			if wl[i] != gl[i] {
				t.Fatalf("generator drifted from %s at line %d; regenerate with -update if intended.\nwant: %s\ngot:  %s",
					golden, i+1, wl[i], gl[i])
			}
		}
		t.Fatalf("generator drifted from %s: %d lines, want %d", golden, len(gl), len(wl))
	}
}
