package polar

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"polar/internal/exploit"
	"polar/internal/ir"
	"polar/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the committed trace-digest golden")

// digestCells are the runtime settings the trace-digest golden runs
// every module under: the metadata strategy at the default offset
// cache, 16 entries and 1 entry, and the stateless strategy at the
// default memo, 16 entries, 1 entry (every object then shares one memo
// slot), the memo off, and an epoch rekey every 4 frees.
var digestCells = []struct {
	name string
	opts []Option
}{
	{"metadata", []Option{WithLayoutMode(LayoutModeMetadata)}},
	{"metadata-cache16", []Option{WithLayoutMode(LayoutModeMetadata), WithCacheSize(16)}},
	{"metadata-cache1", []Option{WithLayoutMode(LayoutModeMetadata), WithCacheSize(1)}},
	{"stateless", []Option{WithLayoutMode(LayoutModeStateless)}},
	{"stateless-memo16", []Option{WithLayoutMode(LayoutModeStateless), WithCacheSize(16)}},
	{"stateless-memo1", []Option{WithLayoutMode(LayoutModeStateless), WithCacheSize(1)}},
	{"stateless-nomemo", []Option{WithLayoutMode(LayoutModeStateless), WithCacheSize(-1)}},
	{"stateless-rekey4", []Option{WithLayoutMode(LayoutModeStateless), WithRekeyEvery(4)}},
}

// digestModule is one program the golden hardens and runs.
type digestModule struct {
	name  string
	mod   *ir.Module
	input []byte
	args  []int64
}

func digestModules() []digestModule {
	var out []digestModule
	for _, w := range workload.All() {
		out = append(out, digestModule{name: "workload/" + w.Name, mod: w.Module, input: w.Input, args: w.Args})
	}
	for _, cs := range exploit.CaseStudies() {
		out = append(out, digestModule{name: "case/" + cs.Name, mod: cs.Build(), args: cs.AttackArgs})
	}
	return out
}

// renderTraceDigests runs every module, with every class hardened, at
// seed 42 under the warn policy in each digest cell, and renders one
// line per cell: the return value, the SHA-256 of the execution trace,
// the peak live-object count and the runtime counters' one-line form.
func renderTraceDigests(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	for _, dm := range digestModules() {
		for _, cell := range digestCells {
			h, err := Harden(ir.Clone(dm.mod), nil)
			if err != nil {
				t.Fatalf("%s: harden: %v", dm.name, err)
			}
			var buf bytes.Buffer
			xw := NewExecTrace(&buf)
			opts := append([]Option{WithSeed(42), WithWarnPolicy(), WithExecTrace(xw),
				WithInput(dm.input), WithArgs(dm.args...)}, cell.opts...)
			res, err := RunHardened(h, opts...)
			if err != nil {
				t.Fatalf("%s %s: run: %v", dm.name, cell.name, err)
			}
			if err := xw.Close(); err != nil {
				t.Fatalf("%s %s: close trace: %v", dm.name, cell.name, err)
			}
			fmt.Fprintf(&b, "%s %s value=%d trace=%x peak-live=%d %s\n", dm.name, cell.name,
				res.Value, sha256.Sum256(buf.Bytes()), res.Runtime.PeakLive, res.Runtime)
		}
	}
	return b.String()
}

// TestTraceDigestGolden pins the hardened execution-trace bytes, return
// values and runtime counters of every workload and case study in both
// layout modes, at several cache and memo sizes and under an epoch
// rekey. A change to the runtime that should be invisible — an
// allocation removed, a cache restructured — must leave every line as
// it is. Regenerate only for an intended change, with:
// go test -run TestTraceDigestGolden -update .
func TestTraceDigestGolden(t *testing.T) {
	got := renderTraceDigests(t)
	golden := filepath.Join("testdata", "tracedigest.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if string(want) == got {
		return
	}
	wl, gl := strings.Split(string(want), "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			t.Errorf("line %d differs from %s:\nwant: %s\ngot:  %s", i+1, golden, wl[i], gl[i])
		}
	}
	if len(wl) != len(gl) {
		t.Errorf("%d lines, want %d", len(gl), len(wl))
	}
	t.Fatal("hardened traces drifted; regenerate with -update only for an intended change")
}
