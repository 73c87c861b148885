package analysis_test

import (
	"testing"

	"polar/internal/analysis"
	"polar/internal/exploit"
	"polar/internal/ir"
	"polar/internal/workload"
)

// The sweep cap is a safety valve for hostile IR. A shipped module that
// reaches it has summaries that never settle, and its analysis time is
// the cap's, not the fixpoint's.
func TestFixpointConverges(t *testing.T) {
	type module struct {
		name string
		m    *ir.Module
	}
	var mods []module
	for _, w := range workload.All() {
		mods = append(mods, module{w.Name, w.Module})
	}
	mods = append(mods, module{"quickstart", mustParseFile(t, "../../examples/quickstart/quickstart.ir")})
	for _, cs := range exploit.CaseStudies() {
		mods = append(mods, module{cs.Name, cs.Build()})
	}
	for _, md := range mods {
		for _, k := range []int{0, analysis.ContextInsensitive, 3} {
			sweeps, limit, converged := analysis.Fixpoint(md.m, analysis.Options{ContextK: k})
			if !converged {
				t.Errorf("%s, k=%d: fixpoint stopped at the sweep cap (%d of %d sweeps)", md.name, k, sweeps, limit)
				continue
			}
			t.Logf("%s, k=%d: converged in %d of %d sweeps", md.name, k, sweeps, limit)
		}
	}
}
