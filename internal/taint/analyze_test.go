package taint

import (
	"reflect"
	"strings"
	"testing"

	"polar/internal/ir"
	"polar/internal/workload"
)

// TestAnalyzeEqualsInOrderMerge: at every width from 1 to 4, Analyze
// over a corpus reports exactly what analyzing each entry alone and
// merging the reports in corpus order reports, down to each tainted
// field. The corpus is libpng's canonical input and its CVE inputs,
// which taint different classes.
func TestAnalyzeEqualsInOrderMerge(t *testing.T) {
	w := workload.LibPNG()
	corpus := [][]byte{w.Input}
	for _, c := range workload.LibPNGCVECases() {
		corpus = append(corpus, c.Input)
	}
	opts := RunOptions{IgnoreRunErrors: true, Fuel: 60_000_000, Args: w.Args}
	want := NewReport()
	distinct := map[string]bool{}
	for _, in := range corpus {
		one, err := AnalyzeOne(w.Module, in, opts)
		if err != nil {
			t.Fatal(err)
		}
		distinct[one.String()] = true
		want.Merge(one)
	}
	if len(distinct) < 3 {
		t.Fatalf("the corpus yields %d distinct reports; the test needs at least 3", len(distinct))
	}
	for width := 1; width <= 4; width++ {
		got, err := analyze(w.Module, corpus, opts, width)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.objects, want.objects) {
			t.Fatalf("width %d: Analyze differs from the in-order merge:\n got %s\nwant %s", width, got, want)
		}
	}
}

// TestAnalyzeNamesFirstFailingEntry: with IgnoreRunErrors off, a corpus
// whose entries 1 and 2 both crash fails on entry 1 at every width.
func TestAnalyzeNamesFirstFailingEntry(t *testing.T) {
	m := ir.NewModule("crash")
	b := ir.NewFunc(m, "main", ir.I64)
	v := b.Call("input_byte", ir.Const(0))
	big := b.Cmp(ir.CmpGt, v, ir.Const(100))
	b.If("boom", big, func() { b.Load(ir.I64, ir.Const(4)) }, nil)
	b.Ret(ir.Const(0))

	for width := 1; width <= 4; width++ {
		_, err := analyze(m, [][]byte{{1}, {200}, {201}, {2}}, RunOptions{}, width)
		if err == nil {
			t.Fatalf("width %d: crashing corpus analyzed without error", width)
		}
		if !strings.HasPrefix(err.Error(), "taint: corpus entry 1: ") {
			t.Fatalf("width %d: error = %q, want it to name corpus entry 1", width, err)
		}
	}
}
