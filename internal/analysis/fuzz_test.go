package analysis_test

import (
	"os"
	"path/filepath"
	"testing"

	"polar/internal/analysis"
	"polar/internal/ir"
)

// FuzzAnalyze feeds arbitrary text through the IR parser, the
// validator and every analysis pass. Four properties under fuzzing:
// nothing panics, invalid modules are rejected before the passes run,
// analysis of a valid module is deterministic, and its fixpoint
// converges before the sweep cap.
func FuzzAnalyze(f *testing.F) {
	seeds := []string{filepath.Join("..", "..", "examples", "quickstart", "quickstart.ir")}
	dumps, _ := filepath.Glob(filepath.Join("..", "..", "examples", "casestudies", "*.ir"))
	seeds = append(seeds, dumps...)
	for _, path := range seeds {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Add("struct %T { a: i64 }\nfunc @main() -> i64 {\nentry:\n  ret 0\n}\n")

	f.Fuzz(func(t *testing.T, src string) {
		m, err := ir.Parse(src)
		if err != nil {
			return
		}
		if err := ir.Validate(m); err != nil {
			return
		}
		if sweeps, limit, converged := analysis.Fixpoint(m, analysis.Options{}); !converged {
			t.Fatalf("fixpoint stopped at the sweep cap (%d of %d sweeps)", sweeps, limit)
		}
		res1 := analysis.Analyze(m, analysis.Options{})
		res2 := analysis.Analyze(m, analysis.Options{})
		if res1.Findings.Render() != res2.Findings.Render() {
			t.Fatalf("nondeterministic findings:\n--- run1\n%s--- run2\n%s",
				res1.Findings.Render(), res2.Findings.Render())
		}
		t1, t2 := res1.Taint.TaintedClasses(), res2.Taint.TaintedClasses()
		if len(t1) != len(t2) {
			t.Fatalf("nondeterministic taint verdict: %v vs %v", t1, t2)
		}
		for i := range t1 {
			if t1[i] != t2[i] {
				t.Fatalf("nondeterministic taint verdict: %v vs %v", t1, t2)
			}
		}
	})
}
