package vm

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"polar/internal/ir"
	"polar/internal/telemetry"
	"polar/internal/telemetry/exectrace"
)

// chainModule parses testdata/chain.ir: hot loops whose blocks are each
// one fused run ending in their terminator, which the bytecode engine
// enters by chaining from the branch that reaches them.
func chainModule(t *testing.T) *ir.Module {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("testdata", "chain.ir"))
	if err != nil {
		t.Fatal(err)
	}
	m, err := ir.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// chainRun is everything one run of chain.ir exposes.
type chainRun struct {
	val      int64
	err      string
	output   string
	stats    Stats
	coverage []byte
	trace    []byte
	fused    uint64
}

// runChain runs @main(mode) of prog on e with the given fuel, with the
// coverage bitmap on and an execution trace riding a telemetry layer.
func runChain(t *testing.T, prog *Program, e engine, mode int64, fuel uint64) chainRun {
	t.Helper()
	var buf bytes.Buffer
	xw := exectrace.NewWriter(&buf)
	v, err := prog.NewInstance(WithFuel(fuel), WithCoverage(), WithTelemetry(telemetry.New()), WithExecTrace(xw))
	if err != nil {
		t.Fatal(err)
	}
	val, runErr := e.run(v, mode)
	if err := xw.Close(); err != nil {
		t.Fatal(err)
	}
	r := chainRun{val: val, output: string(v.Output()), stats: v.Stats, coverage: v.Coverage(), trace: buf.Bytes(), fused: v.Perf.FusedDispatches}
	if runErr != nil {
		r.err = runErr.Error()
	}
	return r
}

// chainSlack is how far past the full run's instruction count the
// sweep goes: more than any block of chain.ir costs.
const chainSlack = 8

// chainFused pins the bytecode engine's Perf.FusedDispatches at every
// fuel value from 0 up, run-length encoded as (value, repeat) pairs:
// the first pair of mode 0 says fuel 0 through 4 dispatch no fused run.
var chainFused = map[int64][]uint64{
	0: {0, 5, 1, 3, 2, 6, 3, 3, 4, 6, 5, 3, 6, 6, 7, 3, 8, 6, 9, 3, 10, 6, 11, 3, 12, 6, 13, 3, 14, 2, 15, 3, 16, 4, 17, 4, 18, 4, 19, 4, 20, 4, 21, 6, 22, 6, 23, 6, 24, 6, 25, 1, 26, 11},
	1: {0, 5, 1, 3, 2, 4, 3, 4, 4, 4, 5, 7},
	2: {0, 5, 1, 3, 2, 6, 3, 4, 4, 4, 5, 4, 6, 4, 7, 6},
}

// rle run-length encodes xs as (value, repeat) pairs.
func rle(xs []uint64) []uint64 {
	var out []uint64
	for i := 0; i < len(xs); {
		j := i
		for j < len(xs) && xs[j] == xs[i] {
			j++
		}
		out = append(out, xs[i], uint64(j-i))
		i = j
	}
	return out
}

// TestChainedDispatchFuelSweep runs chain.ir's three paths at every
// fuel value up to past the full run, on both engines, and demands
// the same result, error text, output, Stats, coverage bitmap and trace
// bytes: entering a block from the branch that reaches it must do all
// the work the block-loop top does, and a fault or a page-cache miss
// inside a chained block must be priced and named by that block. The
// bytecode engine's fused-dispatch count is pinned at every fuel value.
func TestChainedDispatchFuelSweep(t *testing.T) {
	m := chainModule(t)
	prog, err := Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	// The shape the sweep relies on: the hot blocks are each one fused
	// run ending in its terminator, and the blocks around them are not.
	main := prog.bcFuncs[prog.funcIdx["main"]]
	for bi, blk := range m.Func("main").Blocks {
		bb := &main.blocks[bi]
		if bb.cost >= chainSlack {
			t.Fatalf("block %s costs %d, not below the sweep's slack %d", blk.Name, bb.cost, chainSlack)
		}
		end := int32(len(main.code))
		if bi+1 < len(main.blocks) {
			end = main.blocks[bi+1].start
		}
		in := &main.code[bb.start]
		whole := end == bb.start+1 && in.op == bcFused
		if whole {
			last := in.micro[len(in.micro)-1].op
			whole = last == mcBr || last == mcCondBr
		}
		want := blk.Name != "entry" && blk.Name != "tally" && blk.Name != "done"
		if whole != want {
			t.Fatalf("block %s: one fused run ending in its terminator = %v, want %v", blk.Name, whole, want)
		}
	}
	for _, tc := range []struct {
		mode int64
		val  int64
		err  string
	}{
		{0, 70, ""},
		{1, 0, "@main.divs: vm: integer division by zero"},
		{2, 0, "@main.walk: vm: null pointer dereference at 0x0"},
	} {
		full := runChain(t, prog, reference, tc.mode, defaultFuel)
		if full.val != tc.val || full.err != tc.err {
			t.Fatalf("mode %d: full run = %d, %q; want %d, %q", tc.mode, full.val, full.err, tc.val, tc.err)
		}
		// Past the full run's count by more than any block's cost, so
		// the last values let every branch enter its target whole.
		var fused []uint64
		for fuel := uint64(0); fuel <= full.stats.Instructions+chainSlack; fuel++ {
			bc := runChain(t, prog, bytecode, tc.mode, fuel)
			ref := runChain(t, prog, reference, tc.mode, fuel)
			fused = append(fused, bc.fused)
			bc.fused, ref.fused = 0, 0
			if !reflect.DeepEqual(bc, ref) {
				t.Fatalf("mode %d fuel %d: bytecode differs from the reference:\n%s", tc.mode, fuel, chainDiff(bc, ref))
			}
			if fuel < full.stats.Instructions && !strings.Contains(bc.err, ErrFuelExhausted.Error()) {
				t.Fatalf("mode %d fuel %d of %d: err %q, want fuel exhaustion", tc.mode, fuel, full.stats.Instructions, bc.err)
			}
		}
		if got := rle(fused); !reflect.DeepEqual(got, chainFused[tc.mode]) {
			t.Errorf("mode %d: fused dispatches per fuel value (value, repeat pairs)\n got %v\nwant %v", tc.mode, got, chainFused[tc.mode])
		}
	}
}

// TestObservedFusedDispatchFuelSweep runs chain.ir's three paths at
// every fuel value of TestChainedDispatchFuelSweep as a taint run, a
// run with the instruction log and both, and demands chainFused's
// fused-dispatch count at each: an observed run dispatches the fused
// runs an unobserved one does, though it neither chains nor calls the
// kernel, and like it does not count a fused run the fuel cuts short.
func TestObservedFusedDispatchFuelSweep(t *testing.T) {
	prog, err := Compile(chainModule(t))
	if err != nil {
		t.Fatal(err)
	}
	for mode := int64(0); mode < int64(len(chainFused)); mode++ {
		full := runChain(t, prog, reference, mode, defaultFuel)
		for _, obs := range observedModes {
			var fused []uint64
			for fuel := uint64(0); fuel <= full.stats.Instructions+chainSlack; fuel++ {
				opts := []Option{WithFuel(fuel)}
				if obs.tainted {
					opts = append(opts, WithTaint(&RecordingSink{}))
				}
				if obs.traced {
					opts = append(opts, WithTrace(io.Discard, 0))
				}
				v, err := prog.NewInstance(opts...)
				if err != nil {
					t.Fatal(err)
				}
				v.Run(mode)
				fused = append(fused, v.Perf.FusedDispatches)
			}
			if got := rle(fused); !reflect.DeepEqual(got, chainFused[mode]) {
				t.Errorf("mode %d (tainted=%v traced=%v): fused dispatches per fuel value (value, repeat pairs)\n got %v\nwant %v",
					mode, obs.tainted, obs.traced, got, chainFused[mode])
			}
		}
	}
}

// chainDiff names the fields in which two runs differ.
func chainDiff(bc, ref chainRun) string {
	var b strings.Builder
	if bc.val != ref.val || bc.err != ref.err || bc.output != ref.output {
		fmt.Fprintf(&b, "result %d %q %q vs %d %q %q\n", bc.val, bc.err, bc.output, ref.val, ref.err, ref.output)
	}
	if bc.stats != ref.stats {
		fmt.Fprintf(&b, "stats %+v vs %+v\n", bc.stats, ref.stats)
	}
	if !bytes.Equal(bc.coverage, ref.coverage) {
		b.WriteString("coverage bitmaps differ\n")
	}
	if !bytes.Equal(bc.trace, ref.trace) {
		ta, errA := exectrace.Read(bytes.NewReader(bc.trace))
		tb, errB := exectrace.Read(bytes.NewReader(ref.trace))
		if errA != nil || errB != nil {
			fmt.Fprintf(&b, "traces differ and do not decode: %v / %v\n", errA, errB)
		} else if d := exectrace.Diff(ta, tb); d != nil {
			b.WriteString(d.Format("bytecode", "reference"))
		} else {
			b.WriteString("traces byte-differ but their records match\n")
		}
	}
	return b.String()
}
