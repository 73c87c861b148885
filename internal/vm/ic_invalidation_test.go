package vm_test

import (
	"bytes"
	"fmt"
	"math/rand"
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

// Layout-cache invalidation: the dispatch loops read the runtime's one
// layout cache at olr_getptr sites, and its entries die per object — the
// object's own free, a re-allocation over its base, an eviction — or all
// at once when a stateless epoch advance (rekey schedule or explicit
// Rerandomize) moves every member. These tests drive each invalidation
// source mid-run, in both layout modes, and pin the contract that a
// cached offset is never served stale: the program computes through
// resolved member addresses, so a single stale hit after a remap
// corrupts the checksum.

// icChurnModule: an object accessed through four distinct olr_getptr
// sites inside a nested loop. Each outer iteration either churns an
// alloc/free pair of another object (which drives any RekeyEvery
// schedule) or, with realloc, frees the accessed object itself and
// allocates its replacement. When rerandEvery > 0 it also forces a
// mid-run rerandomize via the rt_rerand_now test builtin. The inner
// loop re-executes the same sites eight times per outer pass, so the
// cache sees real hits between invalidations. Returns sum over i<n,
// j<8 of (i+j+3).
func icChurnModule(t *testing.T, rerandEvery int64, realloc bool) *ir.Module {
	t.Helper()
	m := ir.NewModule("icchurn")
	st := m.MustStruct(ir.NewStruct("Node",
		ir.Field{Name: "a", Type: ir.I64},
		ir.Field{Name: "b", Type: ir.I64},
	))
	pt := ir.PtrTo(st)
	b := ir.NewFunc(m, "main", ir.I64, ir.Param{Name: "n", Type: ir.I64})
	sum := b.Local(ir.I64)
	b.Store(ir.I64, ir.Const(0), sum)
	slot := b.Local(pt)
	b.Store(pt, b.Alloc(st), slot)
	b.CountedLoop("outer", b.ParamReg(0), func(i ir.Value) {
		node := b.Load(pt, slot)
		b.Store(ir.I64, i, b.FieldPtr(st, node, 0))
		b.CountedLoop("inner", ir.Const(8), func(j ir.Value) {
			av := b.Load(ir.I64, b.FieldPtr(st, node, 0))
			b.Store(ir.I64, b.Bin(ir.BinAdd, av, b.Bin(ir.BinAdd, j, ir.Const(3))), b.FieldPtr(st, node, 1))
			bv := b.Load(ir.I64, b.FieldPtr(st, node, 1))
			b.Store(ir.I64, b.Bin(ir.BinAdd, b.Load(ir.I64, sum), bv), sum)
		})
		if realloc {
			b.Free(node)
			b.Store(pt, b.Alloc(st), slot)
		} else {
			b.Free(b.Alloc(st))
		}
		if rerandEvery > 0 {
			hit := b.Cmp(ir.CmpEq, b.Bin(ir.BinRem, i, ir.Const(rerandEvery)), ir.Const(rerandEvery-1))
			b.If("rr", hit, func() { b.CallVoid("rt_rerand_now") }, nil)
		}
	})
	b.Free(b.Load(pt, slot))
	b.Ret(b.Load(ir.I64, sum))
	return m
}

// icChurnExpected is the checksum icChurnModule must return for n outer
// iterations, independent of engine, layout mode or remap schedule.
func icChurnExpected(n int64) int64 {
	return 4*n*(n-1) + 52*n
}

// icChurnSetup instruments the module once; every run shares the one
// compiled Program (the cache lives per runtime, the site numbering per
// Program).
type icChurnSetup struct {
	prog  *vm.Program
	table *classinfo.Table
}

func newICChurnSetup(t *testing.T, rerandEvery int64, realloc bool) icChurnSetup {
	t.Helper()
	ins, err := instrument.Apply(icChurnModule(t, rerandEvery, realloc), nil)
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

// TestInlineCacheInvalidationMidRun drives every invalidation source in
// both layout modes and checks, per cell: the checksum is exact (no
// stale offset was ever served), the cache was genuinely exercised
// (hits > 0), every olr_getptr resolution was counted as a hit or a
// miss, the engines agree on the traffic, and in metadata mode every
// inline hit and miss is the offset cache's own. Invalidation is per
// object: freeing another object leaves the accessed one's entries
// alone, so its two first touches are the only misses; freeing and
// re-allocating the accessed object costs at least one miss per trip;
// and every epoch advance costs at least one.
func TestInlineCacheInvalidationMidRun(t *testing.T) {
	const n = 24
	cases := []struct {
		name        string
		mode        core.LayoutMode
		rekeyEvery  int
		rerandEvery int64
		realloc     bool
		// minMisses..maxMisses bounds the miss count (maxMisses 0 = no
		// upper bound).
		minMisses, maxMisses uint64
	}{
		{"metadata-free-churn", core.LayoutModeMetadata, 0, 0, false, 2, 2},
		{"metadata-realloc", core.LayoutModeMetadata, 0, 0, true, n, 0},
		// Metadata mode has no global epoch: Rerandomize moves nothing.
		{"metadata-explicit-rerand", core.LayoutModeMetadata, 0, 4, false, 2, 2},
		{"stateless-free-churn", core.LayoutModeStateless, 0, 0, false, 2, 2},
		{"stateless-realloc", core.LayoutModeStateless, 0, 0, true, n, 0},
		{"stateless-rekey-epoch", core.LayoutModeStateless, 3, 0, false, n / 3, 0},
		{"stateless-explicit-rerand", core.LayoutModeStateless, 0, 4, false, n / 4, 0},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			s := newICChurnSetup(t, tc.rerandEvery, tc.realloc)
			vb, rtb, gb := runICChurn(t, s, engines[0], tc.mode, tc.rekeyEvery, 7, n)
			vl, rtl, gl := runICChurn(t, s, engines[1], tc.mode, tc.rekeyEvery, 7, n)
			if want := icChurnExpected(n); gb != want || gl != want {
				t.Fatalf("checksum: bytecode=%d reference=%d want=%d — a stale cached offset leaked", gb, gl, want)
			}
			if vb.Stats != vl.Stats {
				t.Fatalf("stats differ:\nbytecode  %+v\nreference %+v", vb.Stats, vl.Stats)
			}
			st := rtb.Stats()
			if !reflect.DeepEqual(st, rtl.Stats()) {
				t.Fatalf("runtime stats differ:\nbytecode  %+v\nreference %+v", st, rtl.Stats())
			}
			if len(rtb.ViolationRecords()) != 0 {
				t.Fatalf("violations: %+v", rtb.ViolationRecords())
			}
			// Per outer iteration: 1 site-a store + 8×(load a, store b,
			// load b) = 25 resolutions, all through the cache.
			perf := vb.Perf
			if got, want := perf.InlineHits+perf.InlineMisses, uint64(25*n); got != want {
				t.Fatalf("hits+misses = %d, want %d (every olr_getptr must consult the cache)", got, want)
			}
			if perf.InlineHits == 0 {
				t.Fatal("no inline-cache hits — the inner loop never reused a cached offset")
			}
			if perf.InlineMisses < tc.minMisses || (tc.maxMisses > 0 && perf.InlineMisses > tc.maxMisses) {
				t.Fatalf("%d misses, want %d..%d (0 = unbounded)", perf.InlineMisses, tc.minMisses, tc.maxMisses)
			}
			if tc.mode == core.LayoutModeMetadata && (perf.InlineHits != st.CacheHits || perf.InlineMisses != st.CacheMisses) {
				t.Fatalf("inline %d/%d, offset cache %d/%d: an inline hit must be an offset-cache hit",
					perf.InlineHits, perf.InlineMisses, st.CacheHits, st.CacheMisses)
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
// schedules on and off), all churning layouts mid-run. The cache and
// its generation are per runtime, so under -race this pins that the
// shared Program stays read-only while every run still checksums
// exactly.
func TestInlineCacheConcurrentInstances(t *testing.T) {
	const n, workers, runsPer = 16, 8, 3
	s := newICChurnSetup(t, 4, false)
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

// TestInlineCacheColdUnderTaint: a taint run never reads the inline
// layout cache, so every olr_getptr the instruction log shows runs the
// builtin, and the bytecode engine's taint run makes the reference's
// sink calls exactly. An instruction log alone is no taint run: the
// caches stay in use and the log is the reference's, line for line.
func TestInlineCacheColdUnderTaint(t *testing.T) {
	const n = 12
	s := newICChurnSetup(t, 4, false)
	var logs [2][]string
	for i, e := range engines {
		sink := &vm.RecordingSink{}
		var log strings.Builder
		v, _, got := runICChurn(t, s, e, core.LayoutModeMetadata, 0, 7, n, vm.WithTaint(sink), vm.WithTrace(&log, 0))
		if want := icChurnExpected(n); got != want {
			t.Fatalf("%s: checksum %d, want %d", e.name, got, want)
		}
		if v.Perf.InlineHits != 0 || v.Perf.InlineMisses != 0 {
			t.Fatalf("%s: taint run consulted the inline cache: %+v", e.name, v.Perf)
		}
		if got := strings.Count(log.String(), "call @olr_getptr("); got != 25*n {
			t.Fatalf("%s: the taint run executed %d olr_getptr calls, want %d", e.name, got, 25*n)
		}
		logs[i] = sink.Log
	}
	if !reflect.DeepEqual(logs[0], logs[1]) {
		t.Fatal("taint runs make different sink calls on the two engines")
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

// runCacheCell executes one hardened run with telemetry and an
// execution trace attached; read=false detaches the layout cache from
// the dispatch loops, so every olr_getptr goes through the resolver.
func runCacheCell(t *testing.T, prog *vm.Program, table *classinfo.Table, input []byte, args []int64, cfg core.Config, read bool) ([]byte, core.Stats, vm.Perf) {
	t.Helper()
	var buf bytes.Buffer
	xw := exectrace.NewWriter(&buf)
	tel := telemetry.New()
	cfg.Telemetry, cfg.ExecTrace = tel, xw
	v, err := prog.NewInstance(vm.WithInput(input), vm.WithTelemetry(tel), vm.WithExecTrace(xw))
	if err != nil {
		t.Fatal(err)
	}
	rt := core.New(table, cfg)
	rt.Attach(v)
	if !read {
		v.InstallLayoutCache(nil, nil)
	}
	if _, err := v.Run(args...); err != nil {
		t.Fatal(err)
	}
	if err := xw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), rt.Stats(), v.Perf
}

// requireCacheTransparent runs one configuration with the layout cache
// read on and off and requires identical execution traces and
// core.Stats; in metadata mode every inline hit must also be an
// offset-cache hit.
func requireCacheTransparent(t *testing.T, name string, prog *vm.Program, table *classinfo.Table, input []byte, args []int64, cfg core.Config) {
	t.Helper()
	on, onStats, perf := runCacheCell(t, prog, table, input, args, cfg, true)
	off, offStats, _ := runCacheCell(t, prog, table, input, args, cfg, false)
	requireSameTraceAs(t, on, off, name+" cache read", name+" no cache read")
	if !reflect.DeepEqual(onStats, offStats) {
		t.Fatalf("%s: stats differ:\ncache read    %+v\nno cache read %+v", name, onStats, offStats)
	}
	if cfg.LayoutMode == core.LayoutModeMetadata && perf.InlineHits != onStats.CacheHits {
		t.Fatalf("%s: %d inline hits, %d offset-cache hits", name, perf.InlineHits, onStats.CacheHits)
	}
}

// TestInlineCacheMatchesCoreCache: the dispatch loops read the
// runtime's own cache, so a hit served there replays the resolver's
// offset-cache hit (metadata mode) or derivation-memo hit (stateless
// mode) exactly. Every workload, hardened, runs in both layout modes at
// the default cache size and at 16 entries, where the caches evict
// often, with the cache read on and off; the execution traces and
// core.Stats must be identical, and in metadata mode the inline hits
// are the offset cache's hits.
func TestInlineCacheMatchesCoreCache(t *testing.T) {
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
					requireCacheTransparent(t, fmt.Sprintf("%v cache %d", mode, size), s.prog, s.ins.Table, w.Input, w.Args, cfg)
				}
			}
		})
	}
}

// TestLayoutCacheFieldAliasing: a field index that differs from a
// cached one by a multiple of 2^32 must resolve with the layout cache
// read as it does without it. The hardened module resolves member 1 of
// a %S {i64, i64, i64} and then member 1 + 2^42, which hashes to the
// same slot of both the metadata runtime's table and the stateless
// one, and returns the second member's offset. It used to come back as
// member 1's cached offset with the cache read, and as the base (the
// out-of-range index's static answer) without it.
func TestLayoutCacheFieldAliasing(t *testing.T) {
	m := ir.NewModule("alias")
	st := m.MustStruct(ir.NewStruct("S",
		ir.Field{Name: "a", Type: ir.I64},
		ir.Field{Name: "b", Type: ir.I64},
		ir.Field{Name: "c", Type: ir.I64},
	))
	table, err := classinfo.FromModule(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	cls, ok := table.ByName(st.Name)
	if !ok {
		t.Fatal("no class for %S")
	}
	class := ir.Const(int64(cls.Hash))
	b := ir.NewFunc(m, "main", ir.I64)
	p := b.Call("olr_malloc", class)
	b.Call("olr_getptr", p, ir.Const(1), class)
	q := b.Call("olr_getptr", p, ir.Const(1+1<<42), class)
	b.Ret(b.Bin(ir.BinSub, q, p))
	prog, err := vm.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []core.LayoutMode{core.LayoutModeMetadata, core.LayoutModeStateless} {
		var offs [2]int64
		for i, size := range []int{core.DefaultConfig(7).CacheSize, -1} {
			for _, e := range engines {
				v, err := prog.NewInstance()
				if err != nil {
					t.Fatal(err)
				}
				cfg := core.DefaultConfig(7)
				cfg.LayoutMode, cfg.CacheSize = mode, size
				core.New(table, cfg).Attach(v)
				off, err := e.run(v)
				if err != nil {
					t.Fatalf("%v cache %d %s: %v", mode, size, e.name, err)
				}
				if e.name == engines[0].name {
					offs[i] = off
				} else if off != offs[i] {
					t.Fatalf("%v cache %d: the engines resolve member 1+2^42 to offsets %d and %d", mode, size, offs[i], off)
				}
			}
		}
		if offs[0] != offs[1] {
			t.Errorf("%v: member 1+2^42 resolves to offset %d with the layout cache, %d without", mode, offs[0], offs[1])
		}
	}
}

// genCacheModule builds a program, a pure function of seed, that
// exercises every way an object's cache entries can die. It declares 2–3
// classes of I64 members and keeps five pointer slots, each holding an
// object of one class at a time. Outer and nested counted loops mix member loads and
// stores, type-confused accesses through another class, and
// re-allocations that free a slot's object through a typed pointer
// (olr_free) or an untyped one (a plain free of a hardened object)
// before allocating over the freed base, or first memcpy it into a
// fresh raw chunk that then takes its place. Between loops a slot may
// die, come back, or take an object of another class, often over the
// base it just freed. Every loop body leaves each slot as live as it
// found it, so no access ever dangles. With tainted set, the running
// sum starts at input byte 0 instead of 0, so the values derived from
// it carry a taint label; the program is otherwise the same.
func genCacheModule(seed int64, tainted bool) *ir.Module {
	r := rand.New(rand.NewSource(seed))
	m := ir.NewModule(fmt.Sprintf("gencache%d", seed))
	classes := make([]*ir.StructType, 2+r.Intn(2))
	for c := range classes {
		fields := make([]ir.Field, 2+r.Intn(3))
		for f := range fields {
			fields[f] = ir.Field{Name: fmt.Sprintf("f%d", f), Type: ir.I64}
		}
		classes[c] = m.MustStruct(ir.NewStruct(fmt.Sprintf("C%d", c), fields...))
	}
	b := ir.NewFunc(m, "main", ir.I64)
	sum := b.Local(ir.I64)
	if tainted {
		b.Store(ir.I64, b.Call("input_byte", ir.Const(0)), sum)
	} else {
		b.Store(ir.I64, ir.Const(0), sum)
	}
	type slot struct {
		class int // index into classes
		addr  ir.Value
		live  bool
	}
	alloc := func(s *slot) {
		st := classes[s.class]
		b.Store(ir.PtrTo(st), b.Alloc(st), s.addr)
	}
	slots := make([]*slot, 5)
	for i := range slots {
		slots[i] = &slot{class: r.Intn(len(classes)), addr: b.Local(ir.I64), live: true}
		alloc(slots[i])
	}
	pick := func() *slot {
		var live []*slot
		for _, s := range slots {
			if s.live {
				live = append(live, s)
			}
		}
		if len(live) == 0 {
			return nil
		}
		return live[r.Intn(len(live))]
	}
	free := func(s *slot) {
		if r.Intn(2) == 0 {
			b.Free(b.Load(ir.PtrTo(classes[s.class]), s.addr))
		} else {
			b.Free(b.Load(ir.I64, s.addr))
		}
	}
	labels := 0
	var body func(depth int, idx ir.Value)
	body = func(depth int, idx ir.Value) {
		for n := 2 + r.Intn(5); n > 0; n-- {
			s := pick()
			if s == nil {
				return
			}
			st := classes[s.class]
			p := b.Load(ir.PtrTo(st), s.addr)
			f := r.Intn(len(st.Fields))
			switch op := r.Intn(10); {
			case op < 3:
				v := b.Load(ir.I64, b.FieldPtr(st, p, f))
				b.Store(ir.I64, b.Bin(ir.BinAdd, b.Load(ir.I64, sum), v), sum)
			case op < 6:
				v := b.Bin(ir.BinAdd, b.Load(ir.I64, sum), b.Bin(ir.BinAdd, idx, ir.Const(int64(op))))
				b.Store(ir.I64, v, b.FieldPtr(st, p, f))
			case op == 6:
				other := classes[(s.class+1+r.Intn(len(classes)-1))%len(classes)]
				g := r.Intn(len(other.Fields))
				if r.Intn(2) == 0 {
					v := b.Load(ir.I64, b.FieldPtr(other, p, g))
					b.Store(ir.I64, b.Bin(ir.BinAdd, b.Load(ir.I64, sum), v), sum)
				} else {
					b.Store(ir.I64, idx, b.FieldPtr(other, p, g))
				}
			case op == 7:
				free(s)
				alloc(s)
			case op == 8:
				// A chunk of the static size is too small for some layouts,
				// so the copy may also land in the static layout.
				words := int64(32)
				if r.Intn(2) == 0 {
					words = int64(st.Size() / 8)
				}
				raw := b.AllocN(ir.I64, ir.Const(words))
				b.Memcpy(raw, p, ir.Const(int64(st.Size())))
				free(s)
				b.Store(ir.PtrTo(st), raw, s.addr)
			default:
				if depth < 2 {
					labels++
					b.CountedLoop(fmt.Sprintf("l%d", labels), ir.Const(int64(2+r.Intn(3))), func(i ir.Value) { body(depth+1, i) })
				}
			}
		}
	}
	for g := 4 + r.Intn(4); g > 0; g-- {
		s := slots[r.Intn(len(slots))]
		switch op := r.Intn(3); {
		case s.live && op == 0:
			free(s)
			s.live = false
		case s.live && op == 1:
			// Free and allocate another class, likely over the same base,
			// then read it through the old class: the confused access a
			// stale entry for the old object would serve.
			old := classes[s.class]
			free(s)
			s.class = (s.class + 1 + r.Intn(len(classes)-1)) % len(classes)
			alloc(s)
			p := b.Load(ir.PtrTo(old), s.addr)
			v := b.Load(ir.I64, b.FieldPtr(old, p, r.Intn(len(old.Fields))))
			b.Store(ir.I64, b.Bin(ir.BinAdd, b.Load(ir.I64, sum), v), sum)
		case !s.live:
			alloc(s)
			s.live = true
		}
		labels++
		b.CountedLoop(fmt.Sprintf("l%d", labels), ir.Const(int64(2+r.Intn(4))), func(i ir.Value) { body(1, i) })
	}
	for _, s := range slots {
		if s.live {
			b.Free(b.Load(ir.PtrTo(classes[s.class]), s.addr))
		}
	}
	b.Ret(b.Load(ir.I64, sum))
	return m
}

// TestInlineCacheGenerated is the generated differential for the one
// cache: 200 seeded programs from genCacheModule, hardened, run in both
// layout modes at the default cache size and at 16 entries under
// PolicyWarn, with the cache read on and off; in stateless mode three
// seeds in four also rekey every 1–3 frees. Execution traces and
// core.Stats must be identical, and in metadata mode every inline hit
// is an offset-cache hit.
func TestInlineCacheGenerated(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		m := genCacheModule(seed, false)
		if err := ir.Validate(m); err != nil {
			t.Fatalf("seed %d: generated module invalid: %v\n%s", seed, err, ir.Print(m))
		}
		s := harden(t, m, nil)
		for _, mode := range []core.LayoutMode{core.LayoutModeMetadata, core.LayoutModeStateless} {
			for _, size := range []int{core.DefaultConfig(seed).CacheSize, 16} {
				cfg := core.DefaultConfig(seed)
				cfg.Policy = core.PolicyWarn
				cfg.LayoutMode = mode
				cfg.CacheSize = size
				if mode == core.LayoutModeStateless {
					cfg.RekeyEvery = int(seed % 4)
				}
				requireCacheTransparent(t, fmt.Sprintf("seed %d %v cache %d", seed, mode, size), s.prog, s.ins.Table, nil, nil, cfg)
			}
		}
	}
}
