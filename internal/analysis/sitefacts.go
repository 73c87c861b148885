package analysis

import (
	"encoding/json"
	"fmt"
	"sort"

	"polar/internal/ir"
)

// Static site classification (DESIGN.md §14). Every member access the
// instrumentation pass will rewrite into olr_getptr is classified
// across ALL calling contexts:
//
//   - monomorphic: every context agrees the receiver is a heap object
//     of the declared class;
//   - polymorphic: some context routes a different class, a raw
//     buffer, a stack object or a global through the site;
//   - unknown: the analysis never saw a concrete receiver (forged or
//     external pointers).
//
// Positions use the "@fn.block#idx" vocabulary shared with the
// profiler and violation records. instrument.Apply rewrites
// instructions strictly in place, so a classification computed on the
// uninstrumented module keys correctly against the instrumented
// olr_getptr sites.

// Site classification kinds, serialized by name.
const (
	SiteMonomorphic = "monomorphic"
	SitePolymorphic = "polymorphic"
	SiteUnknown     = "unknown"
)

// SiteFact classifies one fieldptr site.
type SiteFact struct {
	// Pos is the "@fn.block#idx" position, stable across instrument.Apply.
	Pos string `json:"pos"`
	// Class and Field are the access as declared at the site.
	Class string `json:"class"`
	Field int    `json:"field"`
	Kind  string `json:"kind"`
	// Receivers lists the concrete allocation sites the base may
	// address, context-stripped and sorted (heap receivers only).
	Receivers []string `json:"receivers,omitempty"`
}

// SiteFacts is the serializable artifact polarlint -facts writes.
type SiteFacts struct {
	Module string `json:"module"`
	// K is the call-string depth the classification was computed under.
	K     int        `json:"k"`
	Sites []SiteFact `json:"sites"`
}

// EncodeJSON renders the artifact for -facts output.
func (sf *SiteFacts) EncodeJSON() ([]byte, error) {
	return json.MarshalIndent(sf, "", "  ")
}

// siteFactsPass folds every context's converged facts into one
// classification per fieldptr site.
func siteFactsPass(ip *interp) *SiteFacts {
	type acc struct {
		class     string
		field     int
		sawAny    bool            // some context produced a non-empty points-to set
		conflict  bool            // some receiver is not a heap object of the class
		receivers map[string]bool // concrete site keys (any ctx)
	}
	accs := make(map[string]*acc)
	var order []string

	for _, fi := range ip.mi.Funcs {
		for _, cx := range ip.ctxs.contextsOf(fi.Fn.Name) {
			f := fi.Fn
			ip.replay(fi, cx, func(b, i int, in *ir.Instr, fx *regFacts) {
				if in.Op != ir.OpFieldPtr || in.Struct == nil {
					return
				}
				pos := SiteOf(f, b, i).Pos()
				a := accs[pos]
				if a == nil {
					a = &acc{class: in.Struct.Name, field: in.Field, receivers: make(map[string]bool)}
					accs[pos] = a
					order = append(order, pos)
				}
				base := ip.val(fx, in.Args[0])
				if base.pts.empty() {
					return
				}
				a.sawAny = true
				base.pts.forEach(func(ri int) {
					r := ip.regions[ri]
					if r.kind != regHeap || r.class == nil || r.class.Name != a.class {
						a.conflict = true
						return
					}
					a.receivers[fmt.Sprintf("@%s#%d.%d", r.fn, r.site.Block, r.site.Index)] = true
				})
			})
		}
	}

	sf := &SiteFacts{Module: ip.mi.M.Name, K: ip.ctxs.k}
	for _, pos := range order {
		a := accs[pos]
		fact := SiteFact{Pos: pos, Class: a.class, Field: a.field}
		for key := range a.receivers {
			fact.Receivers = append(fact.Receivers, key)
		}
		sort.Strings(fact.Receivers)
		switch {
		case !a.sawAny:
			fact.Kind = SiteUnknown
		case a.conflict:
			fact.Kind = SitePolymorphic
		default:
			fact.Kind = SiteMonomorphic
		}
		sf.Sites = append(sf.Sites, fact)
	}
	return sf
}
