package analysis

import (
	"fmt"

	"polar/internal/ir"
)

// The definite use-after-free / double-free pass. POLaR's booby traps
// turn dangling dereferences into probabilistic crashes at run time;
// this pass finds the definite ones before the program ever runs.
//
// The abstraction is liveness-of-allocation over the interpreter's
// allocation-site regions: per function, two bit vectors flow through
// the CFG — MAY-freed (union at joins) and MUST-freed (intersection at
// joins). An allocation re-arms its own site (the site abstraction's
// strong update), a free of a singleton points-to set moves the site
// into MUST, and a dereference whose every possible target is in MUST
// is a definite use-after-free. Warnings cover the merely-possible
// cases, gated on the full points-to set being may-freed so benign
// workloads stay quiet.

const uafPass = "uaf"

// UAF rule IDs.
const (
	RuleUseAfterFree   = "use-after-free"
	RulePossibleUAF    = "possible-use-after-free"
	RuleDoubleFree     = "double-free"
	RulePossibleDouble = "possible-double-free"
	RuleUninitFptrRead = "uninit-fptr-read"
)

// freedFact pairs the may/must freed region sets. nil is the solver's
// Init ("unvisited"): top for MUST, identity for the meet.
type freedFact struct {
	may, must bitset
}

func (a *freedFact) clone() *freedFact {
	return &freedFact{may: a.may.clone(), must: a.must.clone()}
}

func freedEq(a, b *freedFact) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.may.eq(b.may) && a.must.eq(b.must)
}

func freedMeet(a, b *freedFact) *freedFact {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	out := a.clone()
	out.may.or(b.may)
	out.must.and(b.must)
	return out
}

// uafEvent is one instruction's effect on / query of the freed state.
type uafEvent struct {
	idx   int
	alloc int    // region re-armed, or -1
	free  bitset // pointer targets being freed (heap regions only)
	deref bitset // pointer targets being dereferenced (heap regions only)
	what  string // human description of the dereference
}

func uafPassRun(ip *interp) Findings {
	var out Findings
	for _, fi := range ip.mi.Funcs {
		for _, cx := range ip.ctxs.contextsOf(fi.Fn.Name) {
			out = append(out, uafFunc(ip, fi, cx)...)
		}
	}
	out = append(out, uninitFptrReads(ip)...)
	// One function analyzed under many contexts re-derives the same
	// diagnostic once per context; report each distinct finding once
	// with a context count instead.
	return dedupeFindings(out)
}

func uafFunc(ip *interp, fi *FuncInfo, cx ctxID) Findings {
	f := fi.Fn
	events := make([][]uafEvent, len(f.Blocks))
	ip.replay(fi, cx, func(b, i int, in *ir.Instr, fx *regFacts) {
		if ev, ok := ip.uafEventFor(in, cx, fx); ok {
			ev.idx = i
			events[b] = append(events[b], ev)
		}
	})

	nRegions := len(ip.regions)
	in, _ := FixedPoint(fi, Problem[*freedFact]{
		Dir:      Forward,
		Boundary: &freedFact{may: newBitset(nRegions), must: newBitset(nRegions)},
		Init:     nil,
		Meet:     freedMeet,
		Transfer: func(b int, in *freedFact) *freedFact {
			if in == nil {
				return nil
			}
			st := in.clone()
			for _, ev := range events[b] {
				applyUAFEvent(st, ev)
			}
			return st
		},
		Equal: freedEq,
	})

	var out Findings
	add := func(b, i int, rule string, sev Severity, class, msg string) {
		out = append(out, Finding{
			Pass: uafPass, Rule: rule, Severity: sev, Class: class,
			Site: SiteOf(f, b, i), Message: msg,
		})
	}
	for b := range f.Blocks {
		if in[b] == nil {
			continue
		}
		st := in[b].clone()
		for _, ev := range events[b] {
			switch {
			case !ev.free.empty():
				cls := ip.classOf(ev.free)
				if ev.free.subsetOf(st.must) {
					add(b, ev.idx, RuleDoubleFree, SevError, cls,
						"object is already freed on every path reaching this free")
				} else if ev.free.intersects(st.may) && ev.free.subsetOf(st.may) {
					add(b, ev.idx, RulePossibleDouble, SevWarn, cls,
						"object may already be freed on some path reaching this free")
				}
			case !ev.deref.empty():
				cls := ip.classOf(ev.deref)
				if ev.deref.subsetOf(st.must) {
					add(b, ev.idx, RuleUseAfterFree, SevError, cls, fmt.Sprintf(
						"%s of an object freed on every path reaching it", ev.what))
				} else if ev.deref.subsetOf(st.may) && ev.deref.intersects(st.may) {
					add(b, ev.idx, RulePossibleUAF, SevWarn, cls, fmt.Sprintf(
						"%s of an object that may be freed on some path reaching it", ev.what))
				}
			}
			applyUAFEvent(st, ev)
		}
	}
	return out
}

func applyUAFEvent(st *freedFact, ev uafEvent) {
	if ev.alloc >= 0 {
		st.may.clear(ev.alloc)
		st.must.clear(ev.alloc)
		return
	}
	if !ev.free.empty() {
		st.may.or(ev.free)
		if ri := ev.free.single(); ri >= 0 {
			st.must.set(ri)
		}
	}
}

// uafEventFor classifies one instruction under context cx. Only heap
// allocation-site regions participate: globals and stack locals cannot
// be freed.
func (ip *interp) uafEventFor(in *ir.Instr, cx ctxID, fx *regFacts) (uafEvent, bool) {
	heapOnly := func(pts bitset) bitset {
		var out bitset
		pts.forEach(func(ri int) {
			if ip.regions[ri].kind == regHeap {
				if out == nil {
					out = newBitset(len(ip.regions))
				}
				out.set(ri)
			}
		})
		// Mixed pointer sets (heap ∪ global) are dropped: the deref may
		// legitimately hit the non-heap target, so nothing is definite
		// and a warning would be noise.
		if out != nil && out.count() != pts.count() {
			return nil
		}
		return out
	}
	ev := uafEvent{alloc: -1}
	switch in.Op {
	case ir.OpAlloc:
		if ri, ok := ip.instrRegion[instrCtx{in, cx}]; ok {
			ev.alloc = ri
			return ev, true
		}
	case ir.OpFree:
		ev.free = heapOnly(ip.val(fx, in.Args[0]).pts)
		return ev, !ev.free.empty()
	case ir.OpLoad:
		ev.deref = heapOnly(ip.val(fx, in.Args[0]).pts)
		ev.what = "load"
		return ev, !ev.deref.empty()
	case ir.OpStore:
		ev.deref = heapOnly(ip.val(fx, in.Args[1]).pts)
		ev.what = "store"
		return ev, !ev.deref.empty()
	case ir.OpMemcpy:
		dst := heapOnly(ip.val(fx, in.Args[0]).pts)
		src := heapOnly(ip.val(fx, in.Args[1]).pts)
		if dst == nil {
			dst = src
		} else if src != nil {
			dst = dst.clone()
			dst.or(src)
		}
		ev.deref = dst
		ev.what = "memcpy"
		return ev, !ev.deref.empty()
	case ir.OpMemset:
		ev.deref = heapOnly(ip.val(fx, in.Args[0]).pts)
		ev.what = "memset"
		return ev, !ev.deref.empty()
	case ir.OpCall:
		if in.Callee == "input_read" && len(in.Args) == 3 {
			ev.deref = heapOnly(ip.val(fx, in.Args[0]).pts)
			ev.what = "input_read into"
			return ev, !ev.deref.empty()
		}
	}
	return ev, false
}

// uninitFptrReads flags function-pointer members that are read from a
// class object whose allocation site never initializes them — the
// use-before-init victim shape: with a deterministic heap the stale
// slot is attacker-groomable.
func uninitFptrReads(ip *interp) Findings {
	var out Findings
	for _, fi := range ip.mi.Funcs {
		f := fi.Fn
		for _, cx := range ip.ctxs.contextsOf(f.Name) {
			ip.replay(fi, cx, func(b, i int, in *ir.Instr, fx *regFacts) {
				if in.Op != ir.OpLoad {
					return
				}
				av := ip.val(fx, in.Args[0])
				ri := av.pts.single()
				if ri < 0 || av.off < 0 {
					return
				}
				r := ip.regions[ri]
				if r.kind != regHeap || r.class == nil {
					return
				}
				for fidx, fd := range r.class.Fields {
					if r.class.Offset(fidx) != av.off {
						continue
					}
					if _, isFptr := fd.Type.(ir.FuncPtrType); !isFptr {
						continue
					}
					if !ip.regFieldW[ri][fidx] {
						out = append(out, Finding{
							Pass: uafPass, Rule: RuleUninitFptrRead, Severity: SevError,
							Class: r.class.Name, Site: SiteOf(f, b, i),
							Message: fmt.Sprintf(
								"function-pointer member %s.%s is read but never written for %s; the slot holds stale heap bytes",
								r.class.Name, fd.Name, r.describe()),
						})
					}
				}
			})
		}
	}
	return out
}
