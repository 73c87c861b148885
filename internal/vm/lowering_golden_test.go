package vm_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"polar/internal/instrument"
	"polar/internal/ir"
	"polar/internal/vm"
	"polar/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the committed lowering and front-end goldens")

// renderLoweringGolden compiles, with default options, the baseline and
// the all-classes-hardened module of every workload, then the
// quickstart and each case-study IR file hardened, and renders one
// "name variant fingerprint" line per Program.
func renderLoweringGolden(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	line := func(name, variant string, m *ir.Module) {
		prog, err := vm.Compile(m)
		if err != nil {
			t.Fatalf("%s %s: %v", name, variant, err)
		}
		fmt.Fprintf(&b, "%s %s %016x\n", name, variant, prog.Fingerprint())
	}
	hardened := func(name string, m *ir.Module) {
		ins, err := instrument.Apply(ir.Clone(m), nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		line(name, "hardened", ins.Module)
	}
	for _, w := range workload.All() {
		line(w.Name, "baseline", ir.Clone(w.Module))
		hardened(w.Name, w.Module)
	}
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "casestudies", "*.ir"))
	if err != nil {
		t.Fatal(err)
	}
	files = append([]string{filepath.Join("..", "..", "examples", "quickstart", "quickstart.ir")}, files...)
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		m, err := ir.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		hardened(strings.TrimSuffix(filepath.Base(path), ".ir"), m)
	}
	return b.String()
}

// TestLoweringGolden pins the lowered code every default compile
// produces: any change to which instructions fuse, how operands are
// encoded, which sites read the layout cache or how registers are
// allocated changes a fingerprint. Regenerate with:
// go test ./internal/vm -run TestLoweringGolden -update
func TestLoweringGolden(t *testing.T) {
	got := renderLoweringGolden(t)
	golden := filepath.Join("testdata", "lowering.golden")
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
	if string(want) != got {
		wl, gl := strings.Split(string(want), "\n"), strings.Split(got, "\n")
		for i := 0; i < len(wl) && i < len(gl); i++ {
			if wl[i] != gl[i] {
				t.Fatalf("lowering drifted from %s at line %d; regenerate with -update if intended.\nwant: %s\ngot:  %s",
					golden, i+1, wl[i], gl[i])
			}
		}
		t.Fatalf("lowering drifted from %s: %d lines, want %d", golden, len(gl), len(wl))
	}
}
