// Package instrument implements the POLaR LLVM-pass analogue (§IV.A.2):
// it rewrites a module so that every allocation, deallocation, member
// access and memory copy involving a randomization-target class goes
// through the olr_* runtime ABI.
//
// Rewrites performed (Fig. 4):
//
//	%p = alloc %T            ->  %p = call @olr_malloc(<hash T>)
//	free %p        (T-typed) ->  call @olr_free(%p)
//	%f = fieldptr %T, %p, i  ->  %f = call @olr_getptr(%p, i, <hash T>)
//	memcpy %d, %s, n (typed) ->  call @olr_memcpy(%d, %s, n, <hash T>)
//
// Raw-pointer arithmetic (ptradd) is deliberately left alone: code that
// "manually calculates the offset of a member variable" is outside what
// the pass can see, mirroring the paper's §VI.B compatibility
// discussion.
package instrument

import (
	"fmt"

	"polar/internal/classinfo"
	"polar/internal/ir"
	"polar/internal/telemetry"
)

// Result carries the hardened module and the CIE table embedded in it.
type Result struct {
	Module *ir.Module
	Table  *classinfo.Table
	// Rewrites counts instruction rewrites by kind (for reporting).
	Rewrites RewriteCounts
}

// RewriteCounts tallies what the pass changed.
type RewriteCounts struct {
	Allocs    int
	Frees     int
	FieldPtrs int
	Memcpys   int
	// SkippedRawAccess counts ptradd instructions whose base operand is
	// a known target-class pointer — accesses the pass cannot make safe
	// (§VI.B); reported so users can audit them.
	SkippedRawAccess int
}

// Apply clones m and instruments accesses to the target classes. A nil
// targets slice selects every struct in the module ("applied POLaR to
// the entire set of objects", §V.A); an explicit empty, non-nil slice
// selects none.
func Apply(m *ir.Module, targets []string) (*Result, error) {
	return ApplyTraced(m, targets, nil)
}

// ApplyTraced is Apply with pipeline-phase tracing: when tr is non-nil
// the CIE analysis and the rewrite pass are emitted as "cie" and
// "instrument" spans on the trace timeline. An invalid input fails
// before either runs, with the validator's error wrapped.
func ApplyTraced(m *ir.Module, targets []string, tr *telemetry.Tracer) (*Result, error) {
	if err := ir.Validate(m); err != nil {
		return nil, fmt.Errorf("instrument: invalid input module: %w", err)
	}
	var sp *telemetry.Span
	if tr != nil {
		sp = tr.Begin("cie", "pipeline")
	}
	table, err := classinfo.FromModule(m, targets)
	sp.End()
	if err != nil {
		return nil, err
	}
	if tr != nil {
		sp = tr.Begin("instrument", "pipeline")
	}
	out := ir.Clone(m)
	res := &Result{Module: out, Table: retable(out, table)}
	for _, f := range out.Funcs {
		res.instrumentFunc(f)
	}
	res.Table.EmbedInModule(out)
	if err := ir.Validate(out); err != nil {
		return nil, fmt.Errorf("instrument: produced invalid module: %w", err)
	}
	sp.End()
	return res, nil
}

// retable rebuilds the class table against the cloned module's struct
// identities so Table.Has works by identity on the output module.
func retable(out *ir.Module, t *classinfo.Table) *classinfo.Table {
	var sts []*ir.StructType
	for _, c := range t.Classes() {
		if st, ok := out.Structs[c.Name()]; ok {
			sts = append(sts, st)
		}
	}
	return classinfo.NewTable(sts...)
}

// regTypes infers, per function, which registers statically hold
// pointers to target classes. The builder produces single-assignment
// registers, so one forward pass over blocks suffices.
func (r *Result) regTypes(f *ir.Func) map[int]*ir.StructType {
	types := make(map[int]*ir.StructType)
	note := func(reg int, t ir.Type) {
		if pt, ok := t.(ir.PtrType); ok {
			if st, ok := pt.Elem.(*ir.StructType); ok && r.Table.Has(st) {
				types[reg] = st
			}
		}
	}
	for i, p := range f.Params {
		note(i, p.Type)
	}
	for _, blk := range f.Blocks {
		for i := range blk.Instrs {
			in := &blk.Instrs[i]
			switch in.Op {
			case ir.OpAlloc, ir.OpLocal:
				if in.Struct != nil && r.Table.Has(in.Struct) && len(in.Args) == 0 {
					types[in.Dest] = in.Struct
				}
			case ir.OpLoad:
				note(in.Dest, in.Type)
			case ir.OpMov:
				if in.Args[0].Kind == ir.ValReg {
					if st, ok := types[in.Args[0].Reg]; ok {
						types[in.Dest] = st
					}
				}
			case ir.OpCall:
				if callee := moduleFunc(r.Module, in.Callee); callee != nil && in.Dest >= 0 {
					note(in.Dest, callee.Ret)
				}
			}
		}
	}
	return types
}

func moduleFunc(m *ir.Module, name string) *ir.Func {
	return m.Func(name)
}

func (r *Result) instrumentFunc(f *ir.Func) {
	types := r.regTypes(f)
	regStruct := func(v ir.Value) *ir.StructType {
		if v.Kind != ir.ValReg {
			return nil
		}
		return types[v.Reg]
	}
	for _, blk := range f.Blocks {
		for i := range blk.Instrs {
			in := &blk.Instrs[i]
			switch in.Op {
			case ir.OpAlloc:
				// Only single-object struct allocations are randomized;
				// array allocations of structs keep static layout (the
				// paper's serializable-buffer caveat, §VI.B).
				if in.Struct != nil && r.Table.Has(in.Struct) && len(in.Args) == 0 {
					cls, _ := r.Table.ByName(in.Struct.Name)
					*in = ir.Instr{
						Op: ir.OpCall, Dest: in.Dest, Callee: "olr_malloc",
						Args: []ir.Value{ir.Const(int64(cls.Hash))},
					}
					r.Rewrites.Allocs++
				}
			case ir.OpFree:
				if st := regStruct(in.Args[0]); st != nil {
					*in = ir.Instr{
						Op: ir.OpCall, Dest: -1, Callee: "olr_free",
						Args: []ir.Value{in.Args[0]},
					}
					r.Rewrites.Frees++
				}
			case ir.OpFieldPtr:
				if r.Table.Has(in.Struct) {
					cls, _ := r.Table.ByName(in.Struct.Name)
					*in = ir.Instr{
						Op: ir.OpCall, Dest: in.Dest, Callee: "olr_getptr",
						Args: []ir.Value{in.Args[0], ir.Const(int64(in.Field)), ir.Const(int64(cls.Hash))},
					}
					r.Rewrites.FieldPtrs++
				}
			case ir.OpMemcpy:
				st := regStruct(in.Args[1])
				if st == nil {
					st = regStruct(in.Args[0])
				}
				if st != nil {
					cls, _ := r.Table.ByName(st.Name)
					*in = ir.Instr{
						Op: ir.OpCall, Dest: -1, Callee: "olr_memcpy",
						Args: []ir.Value{in.Args[0], in.Args[1], in.Args[2], ir.Const(int64(cls.Hash))},
					}
					r.Rewrites.Memcpys++
				}
			case ir.OpPtrAdd:
				if regStruct(in.Args[0]) != nil {
					r.Rewrites.SkippedRawAccess++
				}
			}
		}
	}
}
