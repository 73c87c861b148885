package vm

import (
	"fmt"

	"polar/internal/ir"
)

// Static inline-cache seeding (analysis-guided compilation, DESIGN.md
// §14). The static analyzer classifies every olr_getptr site; the
// compiler consumes the verdicts through CompileOpts.Facts:
//
//   - a site proven CHURNED (its innermost loop also frees, so the
//     layout generation invalidates its entry before every reuse) gets
//     no IC slot at all (ic = -1): the call goes straight to the
//     resolver, exactly as a non-instrumented call does;
//   - monomorphic sites proven to address the same single runs-once
//     object (equal ShareKey) are UNIFIED onto one slot: the first
//     access memoizes the randomized offset for every sibling site —
//     compile-time cache pre-seeding with zero new runtime machinery.
//
// Neither transformation changes an observable: IC entries validate
// (base, class, field, generation) on every hit, a suppressed slot
// just replays the resolver path, and a shared-slot hit corresponds to
// the resolver's own offset-cache hit in an unseeded run. The
// seeded-vs-unseeded trace differential in internal/evalrun gates that
// byte-for-byte.
//
// The type is deliberately vm-local (the analysis package converts its
// artifact into it) so the dependency points analysis → vm and the
// taint/policy stack can keep importing vm freely.

// SiteSeed is the compiler-facing verdict for one olr_getptr site.
type SiteSeed struct {
	// Suppress removes the site's IC slot entirely.
	Suppress bool
	// ShareKey, when non-empty, unifies this site's slot with every
	// other site carrying the same key.
	ShareKey string
}

// StaticFacts maps "@fn.block#idx" source positions (the profiler's
// site vocabulary) to seeds. Sites without an entry get the default
// treatment: a fresh private IC slot.
type StaticFacts struct {
	Sites map[string]SiteSeed
}

// planICSites numbers the inline-cache slot of every olr_getptr call
// site, walking the module in lowering order so numbering stays a pure
// function of (module, facts). Without facts every site gets a fresh
// slot in program order; with facts a suppressed site gets none (no
// entry in icSlotOf) and share-keyed sites collapse onto one. Both
// lowerings read the same plan, so an observed run's sites index the
// same per-instance slots as an unobserved one's.
func (p *Program) planICSites(facts *StaticFacts) {
	shared := make(map[string]int32)
	next := int32(0)
	for _, f := range p.mod.Funcs {
		for _, blk := range f.Blocks {
			for ii := range blk.Instrs {
				in := &blk.Instrs[ii]
				if in.Op != ir.OpCall || in.Callee != olrGetptrName || len(in.Args) != 3 {
					continue
				}
				var seed SiteSeed
				if facts != nil {
					seed = facts.Sites[fmt.Sprintf("@%s.%s#%d", f.Name, blk.Name, ii)]
				}
				switch {
				case seed.Suppress:
				case seed.ShareKey != "":
					slot, have := shared[seed.ShareKey]
					if !have {
						slot = next
						next++
						shared[seed.ShareKey] = slot
					}
					p.icSlotOf[in] = slot
				default:
					p.icSlotOf[in] = next
					next++
				}
			}
		}
	}
	p.numICSites = int(next)
}
