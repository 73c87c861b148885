package vm_test

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"polar/internal/classinfo"
	"polar/internal/core"
	"polar/internal/instrument"
	"polar/internal/ir"
	"polar/internal/telemetry"
	"polar/internal/telemetry/exectrace"
	"polar/internal/vm"
	"polar/internal/workload"
)

// Inline layout-cache invalidation: the per-call-site caches at
// olr_getptr sites validate against the runtime's layout generation,
// and every event that can move a member — free, re-allocation over a
// reused address, an explicit Rerandomize, a stateless rekey epoch —
// bumps it. These tests drive each invalidation source mid-run, in both
// layout modes, and pin the contract that a cached offset is never
// served stale: the program computes through resolved member addresses,
// so a single stale hit after a remap corrupts the checksum.

// icChurnModule: an object accessed through four distinct olr_getptr
// sites inside a nested loop, with an alloc/free churn pair per outer
// iteration (bumps the layout generation and drives any RekeyEvery
// schedule) and, when rerandEvery > 0, an explicit mid-run rerandomize
// via the rt_rerand_now test builtin. The inner loop re-executes the
// same sites eight times per outer pass, so the caches see real hits
// between invalidations. Returns sum over i<n, j<8 of (i+j+3).
func icChurnModule(t *testing.T, rerandEvery int64) *ir.Module {
	t.Helper()
	m := ir.NewModule("icchurn")
	st := m.MustStruct(ir.NewStruct("Node",
		ir.Field{Name: "a", Type: ir.I64},
		ir.Field{Name: "b", Type: ir.I64},
	))
	b := ir.NewFunc(m, "main", ir.I64, ir.Param{Name: "n", Type: ir.I64})
	sum := b.Local(ir.I64)
	b.Store(ir.I64, ir.Const(0), sum)
	node := b.Alloc(st)
	b.CountedLoop("outer", b.ParamReg(0), func(i ir.Value) {
		b.Store(ir.I64, i, b.FieldPtr(st, node, 0))
		b.CountedLoop("inner", ir.Const(8), func(j ir.Value) {
			av := b.Load(ir.I64, b.FieldPtr(st, node, 0))
			b.Store(ir.I64, b.Bin(ir.BinAdd, av, b.Bin(ir.BinAdd, j, ir.Const(3))), b.FieldPtr(st, node, 1))
			bv := b.Load(ir.I64, b.FieldPtr(st, node, 1))
			b.Store(ir.I64, b.Bin(ir.BinAdd, b.Load(ir.I64, sum), bv), sum)
		})
		scratch := b.Alloc(st)
		b.Free(scratch)
		if rerandEvery > 0 {
			hit := b.Cmp(ir.CmpEq, b.Bin(ir.BinRem, i, ir.Const(rerandEvery)), ir.Const(rerandEvery-1))
			b.If("rr", hit, func() { b.CallVoid("rt_rerand_now") }, nil)
		}
	})
	b.Free(node)
	b.Ret(b.Load(ir.I64, sum))
	return m
}

// icChurnExpected is the checksum icChurnModule must return for n outer
// iterations, independent of engine, layout mode or remap schedule.
func icChurnExpected(n int64) int64 {
	return 4*n*(n-1) + 52*n
}

// icChurnSetup instruments the module once; every run shares the one
// compiled Program (the caches live per instance, the site numbering
// per Program).
type icChurnSetup struct {
	prog  *vm.Program
	table *classinfo.Table
}

func newICChurnSetup(t *testing.T, rerandEvery int64) icChurnSetup {
	t.Helper()
	ins, err := instrument.Apply(icChurnModule(t, rerandEvery), nil)
	if err != nil {
		t.Fatal(err)
	}
	if ins.Rewrites.FieldPtrs == 0 {
		t.Fatal("instrumentation rewrote no member accesses")
	}
	prog, err := vm.Compile(ins.Module)
	if err != nil {
		t.Fatal(err)
	}
	return icChurnSetup{prog: prog, table: ins.Table}
}

// runICChurn executes one hardened run on engine e. rt_rerand_now is
// bound to Runtime.Rerandomize on this instance, so the module can
// force a rekey from inside the interpreted program.
func runICChurn(t *testing.T, s icChurnSetup, e engine, mode core.LayoutMode, rekeyEvery int, seed, n int64, opts ...vm.Option) (*vm.VM, *core.Runtime, int64) {
	t.Helper()
	v, err := s.prog.NewInstance(opts...)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(seed)
	cfg.LayoutMode = mode
	cfg.RekeyEvery = rekeyEvery
	rt := core.New(s.table, cfg)
	rt.Attach(v)
	v.RegisterBuiltin("rt_rerand_now", func(c *vm.Call) (int64, error) {
		_, err := rt.Rerandomize(v)
		return 0, err
	})
	got, err := e.run(v, n)
	if err != nil {
		t.Fatalf("%s/%v: %v", e.name, mode, err)
	}
	return v, rt, got
}

// TestInlineCacheInvalidationMidRun drives every generation-bump source
// in both layout modes and checks, per cell: the checksum is exact (no
// stale offset was ever served), the caches were genuinely exercised
// (hits > 0) and genuinely invalidated (at least one miss per churned
// outer iteration), every olr_getptr resolution was counted as a hit or
// a miss, and the hit/miss totals agree between engines — the reference
// dispatch path and the bytecode fast path implement one protocol.
func TestInlineCacheInvalidationMidRun(t *testing.T) {
	const n = 24
	cases := []struct {
		name        string
		mode        core.LayoutMode
		rekeyEvery  int
		rerandEvery int64
	}{
		{"metadata-free-churn", core.LayoutModeMetadata, 0, 0},
		{"metadata-explicit-rerand", core.LayoutModeMetadata, 0, 4},
		{"stateless-free-churn", core.LayoutModeStateless, 0, 0},
		{"stateless-rekey-epoch", core.LayoutModeStateless, 3, 0},
		{"stateless-explicit-rerand", core.LayoutModeStateless, 0, 4},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			s := newICChurnSetup(t, tc.rerandEvery)
			vb, rtb, gb := runICChurn(t, s, engines[0], tc.mode, tc.rekeyEvery, 7, n)
			vl, rtl, gl := runICChurn(t, s, engines[1], tc.mode, tc.rekeyEvery, 7, n)
			if want := icChurnExpected(n); gb != want || gl != want {
				t.Fatalf("checksum: bytecode=%d reference=%d want=%d — a stale cached offset leaked", gb, gl, want)
			}
			if vb.Stats != vl.Stats {
				t.Fatalf("stats differ:\nbytecode  %+v\nreference %+v", vb.Stats, vl.Stats)
			}
			if !reflect.DeepEqual(rtb.Stats(), rtl.Stats()) {
				t.Fatalf("runtime stats differ:\nbytecode  %+v\nreference %+v", rtb.Stats(), rtl.Stats())
			}
			if len(rtb.ViolationRecords()) != 0 {
				t.Fatalf("violations: %+v", rtb.ViolationRecords())
			}
			// Per outer iteration: 1 site-a store + 8×(load a, store b,
			// load b) = 25 resolutions, all through the cache protocol.
			perf := vb.Perf
			if got, want := perf.InlineHits+perf.InlineMisses, uint64(25*n); got != want {
				t.Fatalf("hits+misses = %d, want %d (every olr_getptr must consult the cache)", got, want)
			}
			if perf.InlineHits == 0 {
				t.Fatal("no inline-cache hits — the inner loop never reused a cached offset")
			}
			// The churn free bumps the generation every outer iteration,
			// so each of the four sites must re-validate at least once per
			// iteration after the first.
			if perf.InlineMisses < n {
				t.Fatalf("only %d misses over %d invalidating iterations — generation bumps not reaching the cache", perf.InlineMisses, n)
			}
			if lp := vl.Perf; lp.InlineHits != perf.InlineHits || lp.InlineMisses != perf.InlineMisses {
				t.Fatalf("engines disagree on cache traffic: bytecode %d/%d, reference %d/%d",
					perf.InlineHits, perf.InlineMisses, lp.InlineHits, lp.InlineMisses)
			}
		})
	}
}

// TestInlineCacheConcurrentInstances is the stress half of the
// satellite: many goroutines share ONE compiled Program, each with its
// own VM instance and runtime (distinct seeds, both layout modes, rekey
// schedules on and off), all churning layouts mid-run. Cache slots are
// per instance and the generation pointer per runtime, so under -race
// this pins that the shared Program stays read-only while every run
// still checksums exactly.
func TestInlineCacheConcurrentInstances(t *testing.T) {
	const n, workers, runsPer = 16, 8, 3
	s := newICChurnSetup(t, 4)
	var wg sync.WaitGroup
	errs := make(chan error, workers*runsPer)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < runsPer; r++ {
				mode := core.LayoutModeMetadata
				rekey := 0
				if w%2 == 1 {
					mode = core.LayoutModeStateless
					rekey = (r % 2) * 3
				}
				// Errors funnel out; t.Fatal is not goroutine-safe.
				v, _, got := runICChurn(t, s, engines[0], mode, rekey, int64(w*runsPer+r+1), n)
				if want := icChurnExpected(n); got != want {
					errs <- fmt.Errorf("worker %d run %d (%v rekey=%d): checksum %d, want %d — stale cached offset", w, r, mode, rekey, got, want)
					continue
				}
				if v.Perf.InlineHits == 0 {
					errs <- fmt.Errorf("worker %d run %d: zero inline-cache hits", w, r)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestInlineCacheColdUnderHooks: a hooked run never serves an inline
// layout-cache hit, so Hooks.Builtin sees every olr_getptr resolution,
// and the bytecode engine's hooked run makes the reference's Hooks calls
// exactly. An instruction log alone is no hook: the caches stay in use
// and the log is the reference's, line for line.
func TestInlineCacheColdUnderHooks(t *testing.T) {
	const n = 12
	s := newICChurnSetup(t, 4)
	var logs [2][]string
	for i, e := range engines {
		h := &vm.RecordingHooks{}
		v, _, got := runICChurn(t, s, e, core.LayoutModeMetadata, 0, 7, n, vm.WithHooks(h))
		if want := icChurnExpected(n); got != want {
			t.Fatalf("%s: checksum %d, want %d", e.name, got, want)
		}
		if v.Perf.InlineHits != 0 || v.Perf.InlineMisses != 0 {
			t.Fatalf("%s: hooked run consulted the inline cache: %+v", e.name, v.Perf)
		}
		resolutions := 0
		for _, l := range h.Log {
			if strings.HasPrefix(l, "builtin olr_getptr ") {
				resolutions++
			}
		}
		if resolutions != 25*n {
			t.Fatalf("%s: Hooks.Builtin saw %d olr_getptr calls, want %d", e.name, resolutions, 25*n)
		}
		logs[i] = h.Log
	}
	if !reflect.DeepEqual(logs[0], logs[1]) {
		t.Fatal("hooked runs make different Hooks calls on the two engines")
	}

	var traces [2]strings.Builder
	var perf [2]vm.Perf
	for i, e := range engines {
		v, _, _ := runICChurn(t, s, e, core.LayoutModeMetadata, 0, 7, n, vm.WithTrace(&traces[i], 0))
		perf[i] = v.Perf
	}
	if traces[0].String() != traces[1].String() {
		t.Fatal("instruction logs differ across engines")
	}
	if perf[0].InlineHits == 0 || perf[0].InlineHits != perf[1].InlineHits {
		t.Fatalf("traced runs' cache traffic: bytecode %+v, reference %+v", perf[0], perf[1])
	}
}

// TestInlineCacheMatchesCoreCache: an inline-cache hit replays the core
// cache's own hit (metadata mode) or derivation-memo hit (stateless
// mode), so it may only happen where that cache would have hit. Every
// workload, hardened, runs in both layout modes at the default cache
// size and at 16 entries, where the core caches evict often, with the
// inline cache on and off; the execution traces and core.Stats must be
// identical.
func TestInlineCacheMatchesCoreCache(t *testing.T) {
	run := func(t *testing.T, s hardenedSetup, w *workload.Workload, cfg core.Config, inline bool) ([]byte, core.Stats) {
		t.Helper()
		var buf bytes.Buffer
		xw := exectrace.NewWriter(&buf)
		tel := telemetry.New()
		cfg.Telemetry, cfg.ExecTrace = tel, xw
		v, err := s.prog.NewInstance(vm.WithInput(w.Input), vm.WithTelemetry(tel), vm.WithExecTrace(xw))
		if err != nil {
			t.Fatal(err)
		}
		rt := core.New(s.ins.Table, cfg)
		rt.Attach(v)
		if !inline {
			v.InstallLayoutCache(nil, nil)
		}
		if _, err := v.Run(w.Args...); err != nil {
			t.Fatal(err)
		}
		if err := xw.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), rt.Stats()
	}
	for _, w := range workload.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			s := harden(t, w.Module, nil)
			for _, mode := range []core.LayoutMode{core.LayoutModeMetadata, core.LayoutModeStateless} {
				for _, size := range []int{core.DefaultConfig(7).CacheSize, 16} {
					cfg := core.DefaultConfig(7)
					cfg.Policy = core.PolicyWarn
					cfg.LayoutMode = mode
					cfg.CacheSize = size
					on, onStats := run(t, s, w, cfg, true)
					off, offStats := run(t, s, w, cfg, false)
					name := fmt.Sprintf("%v cache %d", mode, size)
					requireSameTraceAs(t, on, off, name+" inline-cache", name+" no-inline-cache")
					if !reflect.DeepEqual(onStats, offStats) {
						t.Fatalf("%v cache %d: stats differ:\ninline-cache    %+v\nno-inline-cache %+v", mode, size, onStats, offStats)
					}
				}
			}
		})
	}
}
