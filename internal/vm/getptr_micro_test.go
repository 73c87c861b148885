package vm_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"polar/internal/core"
	"polar/internal/ir"
	"polar/internal/telemetry"
	"polar/internal/telemetry/exectrace"
	"polar/internal/vm"
)

// getptrChainSetup hardens testdata/getptr_chain.ir and fills in the
// class operand of its olr_getptr call without a destination, which
// the source cannot know before hardening.
func getptrChainSetup(t *testing.T) hardenedSetup {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("testdata", "getptr_chain.ir"))
	if err != nil {
		t.Fatal(err)
	}
	m, err := ir.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	s := harden(t, m, nil)
	class, ok := s.ins.Table.ByName("Node")
	if !ok {
		t.Fatal("no class for %Node")
	}
	patched := 0
	for _, blk := range s.ins.Module.Func("main").Blocks {
		for ii := range blk.Instrs {
			if in := &blk.Instrs[ii]; in.Op == ir.OpCall && in.Callee == "olr_getptr" && in.Dest < 0 {
				in.Args[2] = ir.Const(int64(class.Hash))
				patched++
			}
		}
	}
	if patched != 1 {
		t.Fatalf("%d olr_getptr calls without a destination, want 1", patched)
	}
	if s.prog, err = vm.Compile(s.ins.Module); err != nil {
		t.Fatal(err)
	}
	return s
}

// getptrRun is everything one hardened run of getptr_chain.ir exposes.
type getptrRun struct {
	val      int64
	err      string
	output   string
	stats    vm.Stats
	runtime  core.Stats
	coverage []byte
	trace    []byte
	perf     vm.Perf
}

// runGetptrChain runs @main(mode) on e with the given fuel and layout
// mode under the abort policy, with the coverage bitmap on and an
// execution trace riding a telemetry layer shared with the runtime.
func runGetptrChain(t *testing.T, s hardenedSetup, e engine, lm core.LayoutMode, mode int64, fuel uint64) getptrRun {
	t.Helper()
	var buf bytes.Buffer
	xw := exectrace.NewWriter(&buf)
	tel := telemetry.New()
	cfg := core.DefaultConfig(7)
	cfg.LayoutMode = lm
	cfg.Telemetry, cfg.ExecTrace = tel, xw
	v, rt := s.instance(t, cfg, vm.WithFuel(fuel), vm.WithCoverage(), vm.WithTelemetry(tel), vm.WithExecTrace(xw))
	val, runErr := e.run(v, mode)
	if err := xw.Close(); err != nil {
		t.Fatal(err)
	}
	r := getptrRun{val: val, output: string(v.Output()), stats: v.Stats, runtime: rt.Stats(), coverage: v.Coverage(), trace: buf.Bytes(), perf: v.Perf}
	if runErr != nil {
		r.err = runErr.Error()
	}
	return r
}

// getptrPerf pins the bytecode engine's Perf at every fuel value from
// 0 up, per layout mode and @main argument, each counter run-length
// encoded as (value, repeat) pairs (vm.RunLengths).
var getptrPerf = map[string]struct{ hits, misses, fused []uint64 }{
	"metadata/0": {
		hits:   []uint64{0, 9, 1, 9, 2, 2, 3, 2, 4, 3, 5, 6, 6, 2, 7, 2, 8, 3, 9, 6, 10, 2, 11, 2, 12, 3, 13, 15, 14, 9, 15, 2, 16, 2, 17, 3, 18, 6, 19, 2, 20, 2, 21, 3, 22, 6, 23, 2, 24, 2, 25, 3, 26, 15, 27, 9, 28, 2, 29, 2, 30, 3, 31, 6, 32, 2, 33, 2, 34, 3, 35, 6, 36, 2, 37, 2, 38, 3, 39, 19},
		misses: []uint64{0, 5, 1, 2, 2, 5, 3, 50, 4, 2, 5, 5, 6, 50, 7, 2, 8, 5, 9, 58},
		fused:  []uint64{0, 4, 1, 13, 2, 13, 3, 13, 4, 13, 5, 2, 6, 3, 7, 13, 8, 13, 9, 13, 10, 13, 11, 2, 12, 3, 13, 13, 14, 13, 15, 13, 16, 13, 17, 2, 18, 2, 19, 10},
	},
	"metadata/1": {
		hits:   []uint64{0, 9, 1, 9, 2, 2, 3, 2, 4, 3, 5, 6, 6, 2, 7, 2, 8, 3, 9, 6, 10, 2, 11, 2, 12, 3, 13, 15, 14, 9, 15, 2, 16, 2, 17, 3, 18, 6, 19, 2, 20, 2, 21, 3, 22, 6, 23, 2, 24, 2, 25, 3, 26, 15, 27, 9, 28, 2, 29, 2, 30, 3, 31, 6, 32, 2, 33, 2, 34, 3, 35, 6, 36, 2, 37, 2, 38, 3, 39, 20},
		misses: []uint64{0, 5, 1, 2, 2, 5, 3, 50, 4, 2, 5, 5, 6, 50, 7, 2, 8, 5, 9, 50, 10, 9},
		fused:  []uint64{0, 4, 1, 13, 2, 13, 3, 13, 4, 13, 5, 2, 6, 3, 7, 13, 8, 13, 9, 13, 10, 13, 11, 2, 12, 3, 13, 13, 14, 13, 15, 13, 16, 13, 17, 2, 18, 2, 19, 3, 20, 8},
	},
	"stateless/0": {
		hits:   []uint64{0, 9, 1, 9, 2, 2, 3, 2, 4, 3, 5, 6, 6, 2, 7, 2, 8, 3, 9, 6, 10, 2, 11, 2, 12, 3, 13, 15, 14, 9, 15, 2, 16, 2, 17, 3, 18, 6, 19, 2, 20, 2, 21, 3, 22, 6, 23, 2, 24, 2, 25, 3, 26, 15, 27, 9, 28, 2, 29, 2, 30, 3, 31, 6, 32, 2, 33, 2, 34, 3, 35, 6, 36, 2, 37, 2, 38, 3, 39, 19},
		misses: []uint64{0, 5, 1, 2, 2, 5, 3, 50, 4, 2, 5, 5, 6, 50, 7, 2, 8, 5, 9, 58},
		fused:  []uint64{0, 4, 1, 13, 2, 13, 3, 13, 4, 13, 5, 2, 6, 3, 7, 13, 8, 13, 9, 13, 10, 13, 11, 2, 12, 3, 13, 13, 14, 13, 15, 13, 16, 13, 17, 2, 18, 2, 19, 10},
	},
	"stateless/1": {
		hits:   []uint64{0, 9, 1, 9, 2, 2, 3, 2, 4, 3, 5, 6, 6, 2, 7, 2, 8, 3, 9, 6, 10, 2, 11, 2, 12, 3, 13, 15, 14, 9, 15, 2, 16, 2, 17, 3, 18, 6, 19, 2, 20, 2, 21, 3, 22, 6, 23, 2, 24, 2, 25, 3, 26, 15, 27, 9, 28, 2, 29, 2, 30, 3, 31, 6, 32, 2, 33, 2, 34, 3, 35, 6, 36, 2, 37, 2, 38, 3, 39, 22},
		misses: []uint64{0, 5, 1, 2, 2, 5, 3, 50, 4, 2, 5, 5, 6, 50, 7, 2, 8, 5, 9, 50, 10, 11},
		fused:  []uint64{0, 4, 1, 13, 2, 13, 3, 13, 4, 13, 5, 2, 6, 3, 7, 13, 8, 13, 9, 13, 10, 13, 11, 2, 12, 3, 13, 13, 14, 13, 15, 13, 16, 13, 17, 2, 18, 2, 19, 3, 20, 10},
	},
}

// TestGetptrMicroFuelSweep runs getptr_chain.ir hardened, in both
// layout modes and down both exits, at every fuel value up to past the
// full run, on both engines, and demands the same result, error text,
// output, Stats, core.Stats, coverage bitmap and trace bytes. A fuel
// cut may land anywhere in a run of member accesses: before a cache
// hit, on a miss the runtime resolves, on the sub-word store, on the
// access whose result is unused, on the dangling access. The engines
// count the same layout-cache traffic, and the bytecode engine's Perf
// is pinned at every fuel value.
func TestGetptrMicroFuelSweep(t *testing.T) {
	s := getptrChainSetup(t)
	for _, tc := range []struct {
		lm   core.LayoutMode
		mode int64
		val  int64
		err  string
	}{
		{core.LayoutModeMetadata, 0, 262, ""},
		{core.LayoutModeMetadata, 1, 0, "@main.dangle: polar: use-after-free detected"},
		{core.LayoutModeStateless, 0, 286, ""},
		{core.LayoutModeStateless, 1, 11, ""},
	} {
		name := fmt.Sprintf("%v/%d", tc.lm, tc.mode)
		full := runGetptrChain(t, s, engines[1], tc.lm, tc.mode, 4_000_000_000)
		if full.err != "" && !strings.HasPrefix(full.err, tc.err) || full.err == "" && tc.err != "" {
			t.Fatalf("%s: full run error %q, want prefix %q", name, full.err, tc.err)
		}
		if full.val != tc.val {
			t.Fatalf("%s: full run = %d, want %d", name, full.val, tc.val)
		}
		if full.perf.InlineHits == 0 || full.perf.InlineMisses == 0 {
			t.Fatalf("%s: layout cache traffic %+v, want hits and misses", name, full.perf)
		}
		var hits, misses, fused []uint64
		for fuel := uint64(0); fuel <= full.stats.Instructions+8; fuel++ {
			bc := runGetptrChain(t, s, engines[0], tc.lm, tc.mode, fuel)
			ref := runGetptrChain(t, s, engines[1], tc.lm, tc.mode, fuel)
			if bc.perf.InlineHits != ref.perf.InlineHits || bc.perf.InlineMisses != ref.perf.InlineMisses {
				t.Fatalf("%s fuel %d: layout cache traffic %+v, reference %+v", name, fuel, bc.perf, ref.perf)
			}
			hits = append(hits, bc.perf.InlineHits)
			misses = append(misses, bc.perf.InlineMisses)
			fused = append(fused, bc.perf.FusedDispatches)
			bc.perf, ref.perf = vm.Perf{}, vm.Perf{}
			if !reflect.DeepEqual(bc, ref) {
				t.Fatalf("%s fuel %d: bytecode differs from the reference:\n%s", name, fuel, getptrDiff(bc, ref))
			}
		}
		want := getptrPerf[name]
		if got := vm.RunLengths(hits); !reflect.DeepEqual(got, want.hits) {
			t.Errorf("%s: inline hits per fuel value (value, repeat pairs)\n got %v\nwant %v", name, got, want.hits)
		}
		if got := vm.RunLengths(misses); !reflect.DeepEqual(got, want.misses) {
			t.Errorf("%s: inline misses per fuel value\n got %v\nwant %v", name, got, want.misses)
		}
		if got := vm.RunLengths(fused); !reflect.DeepEqual(got, want.fused) {
			t.Errorf("%s: fused dispatches per fuel value\n got %v\nwant %v", name, got, want.fused)
		}
	}
}

// getptrDiff names the fields in which two runs differ.
func getptrDiff(bc, ref getptrRun) string {
	var b strings.Builder
	if bc.val != ref.val || bc.err != ref.err || bc.output != ref.output {
		fmt.Fprintf(&b, "result %d %q %q vs %d %q %q\n", bc.val, bc.err, bc.output, ref.val, ref.err, ref.output)
	}
	if bc.stats != ref.stats {
		fmt.Fprintf(&b, "stats %+v vs %+v\n", bc.stats, ref.stats)
	}
	if !reflect.DeepEqual(bc.runtime, ref.runtime) {
		fmt.Fprintf(&b, "runtime stats %+v vs %+v\n", bc.runtime, ref.runtime)
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
