package vm_test

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"polar/internal/fuzz"
	"polar/internal/ir"
	"polar/internal/vm"
	"polar/internal/workload"
)

// inputRun is everything a run shows that its input could change.
type inputRun struct {
	ret   int64
	err   string
	out   string
	stats vm.Stats
	cov   []byte
	use   vm.InputUse
}

func runInput(t *testing.T, prog *vm.Program, in []byte, fuel uint64, args []int64) inputRun {
	t.Helper()
	v, err := prog.NewInstance(vm.WithInput(in), vm.WithCoverage(), vm.WithFuel(fuel))
	if err != nil {
		t.Fatal(err)
	}
	ret, runErr := v.Run(args...)
	r := inputRun{ret: ret, out: string(v.Output()), stats: v.Stats, cov: v.Coverage(), use: v.InputUse()}
	if runErr != nil {
		r.err = runErr.Error()
	}
	return r
}

// inputModule returns a program whose @main returns what read got from
// its input, so a run that got a different answer returns a different
// value. @buf is a zeroed 16-byte global read can copy into.
func inputModule(name string, read func(b *ir.Builder) ir.Value) *ir.Module {
	m := ir.NewModule(name)
	if _, err := m.AddGlobal("buf", 16, nil); err != nil {
		panic(err)
	}
	b := ir.NewFunc(m, "main", ir.I64)
	b.Ret(read(b))
	return m
}

func inputByte(off int64) func(b *ir.Builder) ir.Value {
	return func(b *ir.Builder) ir.Value { return b.Call("input_byte", ir.Const(off)) }
}

// inputRead folds what input_read(@buf, off, n) returned for each n
// with the bytes it left in @buf.
func inputRead(off int64, ns ...int64) func(b *ir.Builder) ir.Value {
	return func(b *ir.Builder) ir.Value {
		acc := ir.Value(ir.Const(0))
		for _, n := range ns {
			got := b.Call("input_read", ir.Global("buf"), ir.Const(off), ir.Const(n))
			acc = b.Bin(ir.BinAdd, b.Bin(ir.BinMul, acc, ir.Const(17)), got)
		}
		lo := b.Load(ir.I64, ir.Global("buf"))
		hi := b.Load(ir.I64, b.PtrAdd(ir.Global("buf"), ir.Const(8)))
		buf := b.Bin(ir.BinXor, lo, b.Bin(ir.BinMul, hi, ir.Const(31)))
		return b.Bin(ir.BinAdd, acc, b.Bin(ir.BinMul, buf, ir.Const(1000)))
	}
}

// TestInputUseReplayIsExact is the soundness oracle for vm.InputUse:
// for every mutant (fuzz.Mutate) its parent's record replays, a run on
// the mutant must return, fail, print, count and cover exactly what the
// parent's run did. The boundary modules each return what they read,
// one per way an input query can be answered; the seven apps of the
// Fig. 3 front end run at its fuzz fuel. Every module that reads its
// input must see at least one replay and one mutant that is not, so the
// test cannot pass by replaying nothing; one that reads nothing must
// replay every mutant.
func TestInputUseReplayIsExact(t *testing.T) {
	type tc struct {
		name    string
		m       *ir.Module
		input   []byte
		args    []int64
		maxLen  int
		donor   []byte
		fuel    uint64
		draws   int  // mutants to draw, at least
		nothing bool // the module reads nothing: every mutant replays
	}
	seed, donor := []byte("abcdefgh"), []byte("0123456789ABCDEF")
	boundary := func(name string, nothing bool, read func(b *ir.Builder) ir.Value) tc {
		return tc{name: name, m: inputModule(name, read), input: seed, maxLen: 16, donor: donor,
			fuel: 1_000_000, draws: 300, nothing: nothing}
	}
	cases := []tc{
		boundary("byte-in-range", false, inputByte(3)),
		boundary("byte-past-end", false, inputByte(10)),
		boundary("byte-negative", true, inputByte(-1)),
		boundary("read-in-range", false, inputRead(2, 4)),
		boundary("read-clipped", false, inputRead(5, 10)),
		boundary("read-past-end", false, inputRead(10, 4)),
		boundary("read-nonpositive", true, inputRead(2, 0, -3)),
		boundary("len", false, func(b *ir.Builder) ir.Value { return b.Call("input_len") }),
		boundary("nothing", true, func(b *ir.Builder) ir.Value { return ir.Const(42) }),
	}
	for _, w := range []*workload.Workload{workload.Perlbench(), workload.Sjeng(), workload.H264ref(),
		workload.Xalancbmk(), workload.LibPNG(), workload.LibJPEG(), workload.ChakraModel()} {
		cases = append(cases, tc{name: w.Name, m: w.Module, input: w.Input, args: w.Args,
			maxLen: len(w.Input), fuel: frontEndFuzzFuel, draws: 4})
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			prog, err := vm.Compile(c.m)
			if err != nil {
				t.Fatal(err)
			}
			parent := runInput(t, prog, c.input, c.fuel, c.args)
			rng := rand.New(rand.NewSource(1))
			replays, others := 0, 0
			for n := 0; n < c.draws || (!c.nothing && (replays == 0 || others == 0)); n++ {
				if n == 2000 {
					t.Fatalf("%d mutants drawn: %d replayed, %d not; the test needs both", n, replays, others)
				}
				cand := fuzz.Mutate(c.input, c.donor, c.maxLen, rng)
				if !parent.use.Replays(c.input, cand) {
					if c.nothing {
						t.Fatalf("record %+v does not replay %q, but the module reads nothing", parent.use, cand)
					}
					others++
					continue
				}
				replays++
				got := runInput(t, prog, cand, c.fuel, c.args)
				if got.ret != parent.ret || got.err != parent.err || got.out != parent.out ||
					got.stats != parent.stats || !bytes.Equal(got.cov, parent.cov) {
					t.Fatalf("record %+v of %q replays %q, but its run differs:\n got ret %d err %q stats %+v\nwant ret %d err %q stats %+v",
						parent.use, c.input, cand, got.ret, got.err, got.stats, parent.ret, parent.err, parent.stats)
				}
			}
			t.Logf("record %+v: %d mutants replayed, %d not", parent.use, replays, others)
		})
	}
}

// TestInputReadHugeLength: an input_read whose length is near MaxInt64
// copies what the input holds past the offset, on both engines, and a
// campaign over it finishes. The clip once computed off+n, which
// overflowed and sliced the input out of bounds.
func TestInputReadHugeLength(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "input_read_huge.ir"))
	if err != nil {
		t.Fatal(err)
	}
	m, err := ir.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	in := []byte("01234567")
	for _, e := range engines {
		v, err := vm.New(m, vm.WithInput(in))
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.run(v)
		if err != nil || got != 7 {
			t.Fatalf("%s: got %d, %v; want 7", e.name, got, err)
		}
		if use := v.InputUse(); use != (vm.InputUse{Prefix: 8, Len: true}) {
			t.Fatalf("%s: record %+v, want the whole input, length-dependent", e.name, use)
		}
	}
	if _, err := fuzz.Run(m, [][]byte{in}, fuzz.Config{Iterations: 50, MaxInputLen: 16, Seed: 1}); err != nil {
		t.Fatal(err)
	}
}
