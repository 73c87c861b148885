package vm_test

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"polar/internal/fuzz"
	"polar/internal/ir"
	"polar/internal/taint"
	"polar/internal/vm"
	"polar/internal/workload"
)

// The front end's settings, as perfbench's pipeline workload runs it:
// ten fuzz iterations over inputs no longer than the canonical one, and
// the per-execution fuel budgets of the fuzz and taint steps.
const (
	frontEndSeed      = 1
	frontEndFuzzIters = 10
	frontEndFuzzFuel  = 30_000_000
	frontEndTaintFuel = 60_000_000
)

// hashInputs digests a list of inputs, each length-prefixed so entry
// boundaries are part of the digest.
func hashInputs(h io.Writer, tag string, ins [][]byte) {
	fmt.Fprintf(h, "%s %d\n", tag, len(ins))
	var n [8]byte
	for _, in := range ins {
		binary.LittleEndian.PutUint64(n[:], uint64(len(in)))
		h.Write(n[:])
		h.Write(in)
	}
}

// renderFrontEnd runs the Fig. 3 front end on one workload and renders
// what it produced: the coverage bitmap of one canonical-input run, a
// fuzz campaign's execution and edge counts with a digest of its corpus
// and crashers, and the TaintClass report of the canonical input.
func renderFrontEnd(t *testing.T, w *workload.Workload) string {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "== %s\n", w.Name)

	prog, err := vm.Compile(ir.Clone(w.Module))
	if err != nil {
		t.Fatal(err)
	}
	v, err := prog.NewInstance(vm.WithInput(w.Input), vm.WithCoverage(), vm.WithFuel(frontEndFuzzFuel))
	if err != nil {
		t.Fatal(err)
	}
	ret, runErr := v.Run(w.Args...)
	fmt.Fprintf(&b, "coverage %x ret %d err %v\n", sha256.Sum256(v.Coverage()), ret, runErr)

	fr, err := fuzz.Run(ir.Clone(w.Module), [][]byte{w.Input}, fuzz.Config{
		Iterations: frontEndFuzzIters, MaxInputLen: len(w.Input), Fuel: frontEndFuzzFuel,
		Args: w.Args, Seed: frontEndSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	hashInputs(h, "corpus", fr.Corpus)
	hashInputs(h, "crashers", fr.Crashers)
	fmt.Fprintf(&b, "fuzz execs %d edges %d corpus %d crashers %d inputs %x\n",
		fr.Execs, fr.Edges, len(fr.Corpus), len(fr.Crashers), h.Sum(nil))

	rep, err := taint.Analyze(w.Module, [][]byte{w.Input}, taint.RunOptions{
		IgnoreRunErrors: true, Fuel: frontEndTaintFuel, Args: w.Args,
	})
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString("taint\n")
	b.WriteString(rep.String())
	return b.String()
}

// TestFrontEndGolden pins what the front end makes of every workload:
// coverage edges, the fuzz campaign's corpus and crashers, and the
// tainted classes and fields. A rewrite of the coverage hashing, the
// taint propagation or the shadow memory must leave every line unchanged.
// The engine differential cannot catch a hash change made in both the
// engine and its reference; this can. Regenerate with:
// go test ./internal/vm -run TestFrontEndGolden -update
func TestFrontEndGolden(t *testing.T) {
	ws := workload.All()
	got := make([]string, len(ws))
	t.Run("workloads", func(t *testing.T) {
		for i, w := range ws {
			i, w := i, w
			t.Run(w.Name, func(t *testing.T) {
				t.Parallel()
				got[i] = renderFrontEnd(t, w)
			})
		}
	})
	if t.Failed() {
		return
	}
	all := strings.Join(got, "")
	golden := filepath.Join("testdata", "frontend.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(all), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if string(want) != all {
		wl, gl := strings.Split(string(want), "\n"), strings.Split(all, "\n")
		for i := 0; i < len(wl) && i < len(gl); i++ {
			if wl[i] != gl[i] {
				t.Fatalf("front end drifted from %s at line %d; regenerate with -update if intended.\nwant: %s\ngot:  %s",
					golden, i+1, wl[i], gl[i])
			}
		}
		t.Fatalf("front end drifted from %s: %d lines, want %d", golden, len(gl), len(wl))
	}
}
