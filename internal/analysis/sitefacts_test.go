package analysis_test

import (
	"strings"
	"testing"

	"polar/internal/analysis"
	"polar/internal/ir"
)

func siteFacts(t *testing.T, m *ir.Module) map[string]analysis.SiteFact {
	t.Helper()
	if err := ir.Validate(m); err != nil {
		t.Fatalf("test module invalid: %v", err)
	}
	res := analysis.Analyze(m, analysis.Options{SiteFacts: true})
	out := make(map[string]analysis.SiteFact, len(res.Sites.Sites))
	for _, s := range res.Sites.Sites {
		out[s.Pos] = s
	}
	return out
}

// one returns the single fact whose position contains sub.
func one(t *testing.T, facts map[string]analysis.SiteFact, sub string) analysis.SiteFact {
	t.Helper()
	var got *analysis.SiteFact
	for pos, f := range facts {
		if strings.Contains(pos, sub) {
			if got != nil {
				t.Fatalf("multiple sites match %q", sub)
			}
			f := f
			got = &f
		}
	}
	if got == nil {
		t.Fatalf("no site matches %q in %d facts", sub, len(facts))
	}
	return *got
}

// The churn verdict is about the INNERMOST loop: in
//
//	for { q = alloc; for { p.f } ; free q }
//
// the inner loop never frees, so its site's IC entry survives every
// inner iteration and earns its hits — only sites in the outer body,
// where the free bumps the layout generation each trip, are churned.
func TestChurnMarksInnermostLoopOnly(t *testing.T) {
	m := ir.NewModule("churninner")
	st := testStruct(m)
	b := ir.NewFunc(m, "main", ir.I64)
	p := b.Alloc(st)
	b.CountedLoop("outer", ir.Const(3), func(_ ir.Value) {
		q := b.Alloc(st)
		b.CountedLoop("inner", ir.Const(4), func(_ ir.Value) {
			b.Load(ir.I64, b.FieldPtr(st, p, 0))
		})
		b.Load(ir.I64, b.FieldPtr(st, q, 2))
		b.Free(q)
	})
	b.Ret(ir.Const(0))

	facts := siteFacts(t, m)
	inner := one(t, facts, "inner.body")
	if inner.Churn {
		t.Errorf("inner-loop site churned: its innermost loop never frees\n%+v", inner)
	}
	// The q access sits in inner.exit — past the inner loop, but still
	// inside the outer loop whose body frees every iteration.
	outer := one(t, facts, "inner.exit")
	if !outer.Churn {
		t.Errorf("outer-loop site not churned despite the per-iteration free\n%+v", outer)
	}
}

// Frees reached through a callee churn too: the may-free summary must
// see through direct calls (here two levels deep).
func TestChurnSeesTransitiveFrees(t *testing.T) {
	m := ir.NewModule("churncall")
	st := testStruct(m)

	b := ir.NewFunc(m, "drop", ir.I64, ir.Param{Name: "p", Type: ir.Raw})
	b.Free(b.ParamReg(0))
	b.Ret(ir.Const(0))

	b = ir.NewFunc(m, "reap", ir.I64, ir.Param{Name: "p", Type: ir.Raw})
	b.Ret(b.Call("drop", b.ParamReg(0)))

	b = ir.NewFunc(m, "main", ir.I64)
	p := b.Alloc(st)
	b.CountedLoop("gen", ir.Const(5), func(_ ir.Value) {
		q := b.Alloc(st)
		b.Load(ir.I64, b.FieldPtr(st, p, 0))
		b.CallVoid("reap", q)
	})
	b.Ret(ir.Const(0))

	facts := siteFacts(t, m)
	site := one(t, facts, "gen.body")
	if !site.Churn {
		t.Errorf("site in a loop that frees through reap→drop not churned\n%+v", site)
	}
}

// A loop churns only when it frees on every iteration. In
//
//	for { q = alloc; q.f; if (q.f) free q }
//
// the free sits in one arm of an if, so it does not dominate the
// latch: iterations that skip it keep their IC entries, and the site
// must keep its slot. The same loop with the free moved after the if
// frees every trip and is churned.
func TestChurnNeedsAFreeOnEveryIteration(t *testing.T) {
	m := ir.NewModule("churncond")
	st := testStruct(m)
	b := ir.NewFunc(m, "main", ir.I64)
	b.CountedLoop("sometimes", ir.Const(4), func(i ir.Value) {
		q := b.Alloc(st)
		b.Load(ir.I64, b.FieldPtr(st, q, 0))
		b.If("odd", b.Bin(ir.BinAnd, i, ir.Const(1)), func() {
			b.Free(q)
		}, nil)
	})
	b.CountedLoop("always", ir.Const(4), func(i ir.Value) {
		q := b.Alloc(st)
		b.Load(ir.I64, b.FieldPtr(st, q, 0))
		b.If("even", b.Bin(ir.BinAnd, i, ir.Const(1)), func() {
			b.Store(ir.I64, i, b.FieldPtr(st, q, 2))
		}, nil)
		b.Free(q)
	})
	b.Ret(ir.Const(0))

	facts := siteFacts(t, m)
	if site := one(t, facts, "sometimes.body"); site.Churn {
		t.Errorf("site churned though its loop frees only on some iterations\n%+v", site)
	}
	if site := one(t, facts, "always.body"); !site.Churn {
		t.Errorf("site not churned though its loop frees on every iteration\n%+v", site)
	}
}

// Monomorphic sites addressing one runs-once allocation share a key —
// the compiler unifies them onto one IC slot — while loop-minted
// objects, which are not runs-once, never get one.
func TestShareKeyUnifiesRunsOnceObject(t *testing.T) {
	m := ir.NewModule("sharekey")
	st := testStruct(m)
	b := ir.NewFunc(m, "main", ir.I64)
	p := b.Alloc(st)
	b.Load(ir.I64, b.FieldPtr(st, p, 0))
	b.Load(ir.I64, b.FieldPtr(st, p, 0))
	b.CountedLoop("mint", ir.Const(2), func(_ ir.Value) {
		q := b.Alloc(st)
		b.Load(ir.I64, b.FieldPtr(st, q, 0))
		b.Free(q)
	})
	b.Ret(ir.Const(0))

	if err := ir.Validate(m); err != nil {
		t.Fatal(err)
	}
	res := analysis.Analyze(m, analysis.Options{SiteFacts: true})
	var keys []string
	for _, s := range res.Sites.Sites {
		if s.Kind != analysis.SiteMonomorphic {
			t.Errorf("%s: kind = %s, want monomorphic", s.Pos, s.Kind)
		}
		if strings.Contains(s.Pos, "mint.body") {
			if s.ShareKey != "" {
				t.Errorf("loop-minted object's site %s got share key %q", s.Pos, s.ShareKey)
			}
			continue
		}
		keys = append(keys, s.ShareKey)
	}
	if len(keys) != 2 || keys[0] == "" || keys[0] != keys[1] {
		t.Errorf("straight-line sites on the runs-once object: share keys = %v, want two equal non-empty", keys)
	}
}

// CompileFacts maps the artifact onto compiler seeds: churn suppresses
// (and wins over a share key), share keys pass through, and everything
// else — including class-polymorphic sites, whose loop-invariant
// receivers still hit — keeps the default fresh slot by having NO entry.
func TestCompileFactsMapping(t *testing.T) {
	sf := &analysis.SiteFacts{Sites: []analysis.SiteFact{
		{Pos: "@a.entry#0", Kind: analysis.SiteMonomorphic, Churn: true, ShareKey: "k"},
		{Pos: "@a.entry#1", Kind: analysis.SiteMonomorphic, ShareKey: "k"},
		{Pos: "@a.entry#2", Kind: analysis.SitePolymorphic},
		{Pos: "@a.entry#3", Kind: analysis.SiteMonomorphic},
		{Pos: "@a.entry#4", Kind: analysis.SiteUnknown},
	}}
	cf := sf.CompileFacts()
	if got := cf.Sites["@a.entry#0"]; !got.Suppress {
		t.Errorf("churned site not suppressed: %+v", got)
	}
	if got := cf.Sites["@a.entry#1"]; got.Suppress || got.ShareKey != "k" {
		t.Errorf("share-keyed site mis-seeded: %+v", got)
	}
	for _, pos := range []string{"@a.entry#2", "@a.entry#3", "@a.entry#4"} {
		if _, ok := cf.Sites[pos]; ok {
			t.Errorf("%s: unchurned unshared site got a seed; default slot expected", pos)
		}
	}
}

// The wire artifact round-trips: encode → decode preserves every fact,
// including the churn bit the compiler keys on.
func TestSiteFactsJSONRoundTrip(t *testing.T) {
	m := ir.NewModule("rt")
	st := testStruct(m)
	b := ir.NewFunc(m, "main", ir.I64)
	p := b.Alloc(st)
	b.CountedLoop("l", ir.Const(2), func(_ ir.Value) {
		b.Load(ir.I64, b.FieldPtr(st, p, 0))
		b.Free(b.Alloc(st))
	})
	b.Ret(ir.Const(0))
	if err := ir.Validate(m); err != nil {
		t.Fatal(err)
	}
	res := analysis.Analyze(m, analysis.Options{SiteFacts: true})
	js, err := res.Sites.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := analysis.DecodeSiteFacts(js)
	if err != nil {
		t.Fatal(err)
	}
	if back.Module != res.Sites.Module || back.K != res.Sites.K || len(back.Sites) != len(res.Sites.Sites) {
		t.Fatalf("round trip changed shape: %+v vs %+v", back, res.Sites)
	}
	for i, s := range back.Sites {
		o := res.Sites.Sites[i]
		if s.Pos != o.Pos || s.Churn != o.Churn || s.ShareKey != o.ShareKey || s.Kind != o.Kind {
			t.Errorf("site %d changed across round trip: %+v vs %+v", i, s, o)
		}
	}
	seeds := back.CompileFacts()
	if len(seeds.Sites) == 0 {
		t.Errorf("loop with a free produced no suppressions: %s", js)
	}
}
