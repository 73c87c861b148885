package core

import (
	"os"
	"path/filepath"
	"testing"

	"polar/internal/instrument"
	"polar/internal/ir"
	"polar/internal/vm"
)

// TestMemcpyAdoptionOverGhostCountsLiveObject is the regression test for
// a metadata-mode memcpy that adopts a raw chunk still carrying a freed
// object's ghost record (testdata/adoptghost.ir). The adopted copy is a
// live object: three objects are live at the peak, and at exit the
// runtime's live count matches the store's live records.
func TestMemcpyAdoptionOverGhostCountsLiveObject(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "adoptghost.ir"))
	if err != nil {
		t.Fatal(err)
	}
	m, err := ir.Parse(string(src))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	res, err := instrument.Apply(m, nil)
	if err != nil {
		t.Fatalf("instrument: %v", err)
	}
	v, err := vm.New(res.Module)
	if err != nil {
		t.Fatalf("vm: %v", err)
	}
	rt := New(res.Table, DefaultConfig(42))
	rt.Attach(v)
	got, err := v.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if got != 1 {
		t.Fatal("the raw allocation did not recycle the freed object's chunk")
	}
	st := rt.Stats()
	if st.Memcpys != 1 {
		t.Fatalf("olr_memcpy ran %d times, want 1", st.Memcpys)
	}
	if st.PeakLive != 3 {
		t.Errorf("PeakLive = %d, want 3", st.PeakLive)
	}
	if live := rt.Store().LiveCount(); rt.liveObjs != uint64(live) || live != 3 {
		t.Errorf("runtime counts %d live objects, store holds %d live records, want 3 and 3", rt.liveObjs, live)
	}
}
