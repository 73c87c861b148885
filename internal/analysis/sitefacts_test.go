package analysis_test

import (
	"encoding/json"
	"reflect"
	"testing"

	"polar/internal/analysis"
	"polar/internal/ir"
)

// The wire artifact round-trips: encode → decode preserves every fact.
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
	back := new(analysis.SiteFacts)
	if err := json.Unmarshal(js, back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, res.Sites) {
		t.Fatalf("round trip changed the artifact:\n%+v\n%+v", back, res.Sites)
	}
	if len(back.Sites) != 1 || back.Sites[0].Kind != analysis.SiteMonomorphic || len(back.Sites[0].Receivers) != 1 {
		t.Errorf("the one access to the one allocation is not monomorphic: %s", js)
	}
}
