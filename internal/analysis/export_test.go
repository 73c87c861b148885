package analysis

import "polar/internal/ir"

// Fixpoint runs the shared interpreter alone over m and reports the
// sweeps its outer fixpoint took, the sweep cap, and whether it
// converged before reaching the cap.
func Fixpoint(m *ir.Module, opts Options) (sweeps, limit int, converged bool) {
	ip := newInterp(BuildModuleInfo(m), opts)
	sweeps, converged = ip.run()
	return sweeps, ip.sweepCap(), converged
}
