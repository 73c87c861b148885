package fuzz

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"polar/internal/ir"
)

// buildMaze returns a program whose deeper handlers only execute for
// inputs with specific magic bytes — the classic coverage-guided
// fuzzing target.
func buildMaze() *ir.Module {
	m := ir.NewModule("maze")
	b := ir.NewFunc(m, "main", ir.I64)
	depth := b.Local(ir.I64)
	b.Store(ir.I64, ir.Const(0), depth)
	b0 := b.Call("input_byte", ir.Const(0))
	is0 := b.Cmp(ir.CmpEq, b0, ir.Const('P'))
	b.If("l0", is0, func() {
		b.Store(ir.I64, ir.Const(1), depth)
		b1 := b.Call("input_byte", ir.Const(1))
		is1 := b.Cmp(ir.CmpEq, b1, ir.Const('O'))
		b.If("l1", is1, func() {
			b.Store(ir.I64, ir.Const(2), depth)
			b2 := b.Call("input_byte", ir.Const(2))
			is2 := b.Cmp(ir.CmpEq, b2, ir.Const('L'))
			b.If("l2", is2, func() {
				b.Store(ir.I64, ir.Const(3), depth)
			}, nil)
		}, nil)
	}, nil)
	b.Ret(b.Load(ir.I64, depth))
	return m
}

func TestCampaignFindsNewCoverage(t *testing.T) {
	m := buildMaze()
	res, err := Run(m, [][]byte{[]byte("XXX")}, Config{Iterations: 3000, MaxInputLen: 16, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if res.Execs < 3000 {
		t.Errorf("execs = %d", res.Execs)
	}
	if res.Edges == 0 {
		t.Fatal("no edges recorded at all")
	}
	// The corpus should have grown beyond the seed: at least one magic
	// byte found within 3000 iterations (byte 0 == 'P' is a 1/256 draw
	// with many chances).
	if len(res.Corpus) < 2 {
		t.Fatalf("corpus did not grow: %d entries", len(res.Corpus))
	}
}

func TestCampaignDeterministic(t *testing.T) {
	m := buildMaze()
	run := func() *Result {
		res, err := Run(m, [][]byte{[]byte("seed")}, Config{Iterations: 500, MaxInputLen: 16, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Execs != b.Execs || len(a.Corpus) != len(b.Corpus) || a.Edges != b.Edges {
		t.Fatalf("campaigns diverged: %+v vs %+v", a, b)
	}
	for i := range a.Corpus {
		if string(a.Corpus[i]) != string(b.Corpus[i]) {
			t.Fatalf("corpus entry %d differs", i)
		}
	}
}

func TestCrashersCollected(t *testing.T) {
	m := ir.NewModule("crasher")
	b := ir.NewFunc(m, "main", ir.I64)
	v := b.Call("input_byte", ir.Const(0))
	is := b.Cmp(ir.CmpEq, v, ir.Const(0x42))
	b.If("boom", is, func() {
		x := b.Load(ir.I64, ir.Const(8)) // null page
		_ = x
	}, nil)
	b.Ret(ir.Const(0))
	res, err := Run(m, [][]byte{{0}}, Config{Iterations: 4000, MaxInputLen: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Crashers) == 0 {
		t.Fatal("crasher input never found")
	}
	if res.Crashers[0][0] != 0x42 {
		t.Fatalf("crasher = %v", res.Crashers[0])
	}
}

func TestMutateRespectsMaxLen(t *testing.T) {
	prop := func(seed int64, pLen, dLen uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		parent := make([]byte, int(pLen)%64)
		donor := make([]byte, int(dLen)%64)
		rng.Read(parent)
		rng.Read(donor)
		const maxLen = 48
		out := Mutate(parent, donor, maxLen, rng)
		return len(out) <= maxLen
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestMutateDoesNotAliasParent(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	parent := []byte("immutable-parent-bytes")
	snapshot := string(parent)
	for i := 0; i < 200; i++ {
		Mutate(parent, []byte("donor"), 64, rng)
	}
	if string(parent) != snapshot {
		t.Fatal("Mutate modified the parent slice")
	}
}

func TestEmptySeedsHandled(t *testing.T) {
	m := buildMaze()
	res, err := Run(m, nil, Config{Iterations: 50, MaxInputLen: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Execs == 0 || len(res.Corpus) == 0 {
		t.Fatalf("empty-seed campaign: %+v", res)
	}
}

func TestFuelExhaustionIsNotACrash(t *testing.T) {
	m := ir.NewModule("spin")
	b := ir.NewFunc(m, "main", ir.I64)
	v := b.Call("input_byte", ir.Const(0))
	spin := b.Cmp(ir.CmpEq, v, ir.Const(1))
	b.If("s", spin, func() {
		b.Br("forever")
		b.Block("forever")
		b.Br("forever")
	}, nil)
	b.Ret(ir.Const(0))
	res, err := Run(m, [][]byte{{1}}, Config{Iterations: 20, MaxInputLen: 2, Seed: 2, Fuel: 5000})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Crashers {
		if len(c) > 0 && c[0] == 1 {
			t.Fatal("fuel exhaustion misclassified as crash")
		}
	}
}

// TestTaintInputsListEachInputOnce: TaintClass gets the seeds, then each
// distinct corpus entry and crasher once. A campaign on a program that
// never reads its input keeps only its seed, so the seed alone is
// analyzed; one on a program that always crashes makes its seed both
// the first corpus entry and a crasher, and repeats short crashers.
func TestTaintInputsListEachInputOnce(t *testing.T) {
	flat := ir.NewModule("flat")
	ir.NewFunc(flat, "main", ir.I64).Ret(ir.Const(0))
	seed := []byte("seed")
	res, err := Run(flat, [][]byte{seed}, Config{Iterations: 20, MaxInputLen: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Corpus) != 1 {
		t.Fatalf("flat campaign kept %d corpus entries, want only its seed", len(res.Corpus))
	}
	if got := TaintInputs([][]byte{seed}, res.Corpus, res.Crashers); !reflect.DeepEqual(got, [][]byte{seed}) {
		t.Fatalf("flat campaign: TaintInputs = %q, want just the seed", got)
	}

	crash := ir.NewModule("crash")
	b := ir.NewFunc(crash, "main", ir.I64)
	b.Load(ir.I64, ir.Const(8))
	b.Ret(ir.Const(0))
	seeds := [][]byte{{1}, {1}}
	res, err = Run(crash, seeds, Config{Iterations: 200, MaxInputLen: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	got := TaintInputs(seeds, res.Corpus, res.Crashers)
	if len(got) < len(seeds) || !reflect.DeepEqual(got[:len(seeds)], seeds) {
		t.Fatalf("TaintInputs = %q, want it to start with the seeds %q", got, seeds)
	}
	listed := map[string]bool{string(seeds[0]): true}
	for _, in := range got[len(seeds):] {
		if listed[string(in)] {
			t.Fatalf("TaintInputs lists %q twice", in)
		}
		listed[string(in)] = true
	}
	for _, in := range append(res.Corpus, res.Crashers...) {
		if !listed[string(in)] {
			t.Fatalf("TaintInputs omits %q", in)
		}
	}
}
