package workload

import (
	"bytes"
	"testing"

	"polar/internal/core"
	"polar/internal/instrument"
	"polar/internal/ir"
	"polar/internal/taint"
	"polar/internal/vm"
)

func runBaseline(t *testing.T, w *Workload) (int64, []byte) {
	t.Helper()
	v, err := vm.New(ir.Clone(w.Module), vm.WithInput(w.Input))
	if err != nil {
		t.Fatalf("%s: vm: %v", w.Name, err)
	}
	res, err := v.Run(w.Args...)
	if err != nil {
		t.Fatalf("%s: baseline run: %v", w.Name, err)
	}
	return res, v.Output()
}

// runHardened runs the instrumented module ins of w under the POLaR
// runtime configured by cfg.
func runHardened(t *testing.T, w *Workload, ins *instrument.Result, cfg core.Config) (int64, []byte) {
	t.Helper()
	v, err := vm.New(ir.Clone(ins.Module), vm.WithInput(w.Input))
	if err != nil {
		t.Fatalf("%s: vm: %v", w.Name, err)
	}
	core.New(ins.Table, cfg).Attach(v)
	res, err := v.Run(w.Args...)
	if err != nil {
		t.Fatalf("%s: hardened run (%s, seed %d): %v", w.Name, cfg.LayoutMode, cfg.Seed, err)
	}
	return res, v.Output()
}

// TestWorkloadsValidate checks every registered workload builds a valid
// module with the advertised tainted-type inventory size.
func TestWorkloadsValidate(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			if err := w.Validate(); err != nil {
				t.Fatal(err)
			}
			if w.PaperTaintedCount >= 0 && w.Name != "libpng-1.6.34" {
				if got := len(w.ExpectedTainted); got != w.PaperTaintedCount {
					t.Errorf("inventory size = %d, want Table I count %d", got, w.PaperTaintedCount)
				}
			}
		})
	}
}

// TestWorkloadsDeterministicUnderPOLaR is the compatibility experiment
// (§V.A): every workload must produce the same result and output
// hardened as unhardened, across several randomization seeds, in both
// layout modes — the metadata table, and stateless derivation with and
// without epoch rekeying.
func TestWorkloadsDeterministicUnderPOLaR(t *testing.T) {
	modes := []struct {
		name       string
		mode       core.LayoutMode
		rekeyEvery int
	}{
		{"metadata", core.LayoutModeMetadata, 0},
		{"stateless", core.LayoutModeStateless, 0},
		{"stateless-rekey4", core.LayoutModeStateless, 4},
	}
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			want, wantOut := runBaseline(t, w)
			ins, err := instrument.Apply(w.Module, nil)
			if err != nil {
				t.Fatalf("instrument: %v", err)
			}
			for seed := int64(1); seed <= 3; seed++ {
				for _, m := range modes {
					cfg := core.DefaultConfig(seed)
					cfg.LayoutMode, cfg.RekeyEvery = m.mode, m.rekeyEvery
					got, gotOut := runHardened(t, w, ins, cfg)
					if got != want {
						t.Fatalf("%s, seed %d: hardened result %d != baseline %d", m.name, seed, got, want)
					}
					if !bytes.Equal(gotOut, wantOut) {
						t.Fatalf("%s, seed %d: hardened output differs from baseline", m.name, seed)
					}
				}
			}
		})
	}
}

// TestTaintClassMatchesTableI runs the TaintClass analysis on each
// workload's canonical input and compares the discovered object set with
// the expected inventory (Table I).
func TestTaintClassMatchesTableI(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			rep, err := taint.AnalyzeOne(w.Module, w.Input, taint.RunOptions{IgnoreRunErrors: true})
			if err != nil {
				t.Fatalf("analyze: %v", err)
			}
			got := rep.TaintedClasses()
			want := append([]string(nil), w.ExpectedTainted...)
			sortStrings(want)
			if !equalStrings(got, want) {
				t.Errorf("tainted set mismatch:\n got  %v\n want %v", got, want)
			}
		})
	}
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
