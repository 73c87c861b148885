package ir

import (
	"errors"
	"fmt"
)

// MaxRegs bounds NumRegs, so register numbers run below it: the VM and
// the analyses size per-register tables by NumRegs, and a module naming
// %r400000000 would have them allocate gigabytes. It is far above what
// any module here uses (483.xalancbmk's @parse, the largest, has 472).
const MaxRegs = 1 << 16

// ErrTooManyRegs is wrapped by the parse and validation errors of a
// function whose registers do not all run below MaxRegs.
var ErrTooManyRegs = errors.New("ir: register number out of range")

// ErrAccessType is wrapped by the validation error of a load or store
// whose type is not a scalar the engines read and write whole: an
// integer, f64 or pointer of 1, 2, 4 or 8 bytes.
var ErrAccessType = errors.New("ir: load or store of a non-scalar type")

// ErrOperands is wrapped by the validation error of an instruction
// that lacks an operand, branch target, type or destination register
// its op needs. The parser rejects each such shape; a module built in
// Go can still hold one.
var ErrOperands = errors.New("ir: instruction lacks an operand its op needs")

// opNeed is what an instruction of one op must carry: at least args
// operands and blocks branch targets, a type when typed, a destination
// register when dest.
type opNeed struct {
	args, blocks int
	typed, dest  bool
}

// opNeeds gives each op's opNeed. A load's type is checked by
// scalarAccess, a fieldptr's struct on its own; calls and returns need
// nothing fixed.
var opNeeds = [...]opNeed{
	OpAlloc:    {typed: true, dest: true},
	OpLocal:    {typed: true, dest: true},
	OpFree:     {args: 1},
	OpLoad:     {args: 1, dest: true},
	OpStore:    {args: 2},
	OpMemcpy:   {args: 3},
	OpMemset:   {args: 3},
	OpFieldPtr: {args: 1, dest: true},
	OpElemPtr:  {args: 2, typed: true, dest: true},
	OpPtrAdd:   {args: 2, dest: true},
	OpBin:      {args: 2, dest: true},
	OpCmp:      {args: 2, dest: true},
	OpFBin:     {args: 2, dest: true},
	OpFCmp:     {args: 2, dest: true},
	OpItoF:     {args: 1, dest: true},
	OpFtoI:     {args: 1, dest: true},
	OpMov:      {args: 1, dest: true},
	OpBr:       {blocks: 1},
	OpCondBr:   {args: 1, blocks: 2},
	OpCall:     {},
	OpRet:      {},
}

// missing names what in lacks of its op's opNeed ("" when nothing).
func missing(in *Instr) string {
	if in.Op < 0 || int(in.Op) >= len(opNeeds) {
		return ""
	}
	switch n := opNeeds[in.Op]; {
	case len(in.Args) < n.args:
		return fmt.Sprintf("%d operands, not %d", len(in.Args), n.args)
	case len(in.Blocks) < n.blocks:
		return fmt.Sprintf("%d branch targets, not %d", len(in.Blocks), n.blocks)
	case n.typed && in.Type == nil:
		return "no type"
	case n.dest && in.Dest < 0:
		return "no destination register"
	}
	return ""
}

// scalarAccess reports whether a load or store may name t.
func scalarAccess(t Type) bool {
	if t == nil {
		return false
	}
	switch t.Kind() {
	case KindInt, KindFloat, KindPtr:
		switch t.Size() {
		case 1, 2, 4, 8:
			return true
		}
	}
	return false
}

// ValidationError aggregates all problems found in a module.
type ValidationError struct {
	Problems []string
	// Err is the sentinel one of the problems wraps (ErrTooManyRegs,
	// ErrAccessType, ErrOperands), or nil.
	Err error
}

// Error implements error.
func (e *ValidationError) Error() string {
	if len(e.Problems) == 1 {
		return "ir: " + e.Problems[0]
	}
	return fmt.Sprintf("ir: %d problems, first: %s", len(e.Problems), e.Problems[0])
}

// Unwrap returns the sentinel one of the problems wraps.
func (e *ValidationError) Unwrap() error { return e.Err }

// Validate checks structural well-formedness: function and global
// names are unique, every block ends in exactly one terminator (and has
// no interior terminators), every instruction carries the operands,
// branch targets, type and destination its op needs, branch targets
// are in range, register numbers are in range, loads and stores name a
// scalar type, callees that are not builtins exist, field indices are
// valid, and globals referenced by operands exist. Builtin callees (any
// name starting with a known builtin prefix) are resolved at run time
// by the VM, so unknown callees are only flagged when they look like
// module-internal names.
func Validate(m *Module) error {
	var probs []string
	addf := func(format string, args ...any) {
		probs = append(probs, fmt.Sprintf(format, args...))
	}
	// The VM, Module.Func and the analysis all resolve functions and
	// globals by name, and disagree on which of two definitions wins.
	funcs := make(map[string]bool, len(m.Funcs))
	for _, f := range m.Funcs {
		if funcs[f.Name] {
			addf("@%s: duplicate function", f.Name)
		}
		funcs[f.Name] = true
	}
	globals := make(map[string]bool, len(m.Globals))
	for _, g := range m.Globals {
		if globals[g.Name] {
			addf("@%s: duplicate global", g.Name)
		}
		globals[g.Name] = true
	}
	var sentinel error
	for _, f := range m.Funcs {
		if len(f.Blocks) == 0 {
			addf("@%s: no blocks", f.Name)
			continue
		}
		// Checked before validateFlow sizes its tables by NumRegs.
		if f.NumRegs < 0 || f.NumRegs > MaxRegs {
			addf("@%s: NumRegs %d is not within [0, %d]", f.Name, f.NumRegs, MaxRegs)
			sentinel = ErrTooManyRegs
			continue
		}
		for bi, blk := range f.Blocks {
			if len(blk.Instrs) == 0 {
				addf("@%s.%s: empty block", f.Name, blk.Name)
				continue
			}
			for ii := range blk.Instrs {
				in := &blk.Instrs[ii]
				last := ii == len(blk.Instrs)-1
				if in.IsTerminator() != last {
					if last {
						addf("@%s.%s: block does not end in a terminator", f.Name, blk.Name)
					} else {
						addf("@%s.%s: terminator mid-block at instr %d", f.Name, blk.Name, ii)
					}
				}
				if what := missing(in); what != "" {
					addf("@%s.%s: instr %d has %s", f.Name, blk.Name, ii, what)
					sentinel = ErrOperands
				}
				if in.Dest >= f.NumRegs {
					addf("@%s.%s: dest %%r%d out of range (NumRegs=%d)", f.Name, blk.Name, in.Dest, f.NumRegs)
				}
				for _, a := range in.Args {
					switch a.Kind {
					case ValReg:
						if a.Reg < 0 || a.Reg >= f.NumRegs {
							addf("@%s.%s: operand %%r%d out of range", f.Name, blk.Name, a.Reg)
						}
					case ValGlobal:
						if m.Global(a.Sym) == nil {
							addf("@%s.%s: unknown global @%s", f.Name, blk.Name, a.Sym)
						}
					case ValFunc:
						if m.Func(a.Sym) == nil {
							addf("@%s.%s: unknown function ref &%s", f.Name, blk.Name, a.Sym)
						}
					}
				}
				for _, t := range in.Blocks {
					if t < 0 || t >= len(f.Blocks) {
						addf("@%s.%s: branch target %d out of range", f.Name, blk.Name, t)
					}
				}
				if (in.Op == OpLoad || in.Op == OpStore) && !scalarAccess(in.Type) {
					addf("@%s.%s: load or store of type %v, not an integer, f64 or pointer of 1, 2, 4 or 8 bytes", f.Name, blk.Name, in.Type)
					sentinel = ErrAccessType
				}
				if in.Op == OpFieldPtr {
					if in.Struct == nil {
						addf("@%s.%s: fieldptr without struct", f.Name, blk.Name)
					} else if in.Field < 0 || in.Field >= len(in.Struct.Fields) {
						addf("@%s.%s: fieldptr index %d out of range for %%%s", f.Name, blk.Name, in.Field, in.Struct.Name)
					}
				}
				if in.Op == OpCall && m.Func(in.Callee) == nil && !IsBuiltinName(in.Callee) {
					addf("@%s.%s: call to unknown function @%s", f.Name, blk.Name, in.Callee)
				}
				_ = bi
			}
		}
		validateFlow(f, addf)
	}
	if len(probs) > 0 {
		return &ValidationError{Problems: probs, Err: sentinel}
	}
	return nil
}

// validateFlow runs the graph-level checks on one function: unreachable
// blocks and definite use-before-def register reads, reusing the CFG
// and def-use helpers the analysis framework is built on rather than an
// ad-hoc walk. Both conditions are latent bugs (dead code the author
// thinks runs; reads of a register no path ever wrote) even though the
// VM would execute them without faulting — registers start zeroed.
func validateFlow(f *Func, addf func(format string, args ...any)) {
	cfg := BuildCFG(f)
	for _, b := range cfg.UnreachableBlocks() {
		addf("@%s.%s: unreachable block", f.Name, f.Blocks[b].Name)
	}
	du := BuildDefUse(f)
	for _, uu := range du.UndefinedUses(cfg) {
		addf("@%s.%s: %%r%d used before any definition (instr %d)",
			f.Name, f.Blocks[uu.Site.Block].Name, uu.Reg, uu.Site.Index)
	}
}

// builtinPrefixes lists name prefixes resolved by the VM rather than the
// module: I/O intrinsics, math helpers, and the POLaR runtime ABI.
var builtinPrefixes = []string{"input_", "print_", "olr_", "rt_", "taint_"}

// IsBuiltinName reports whether a callee name is reserved for VM
// builtins.
func IsBuiltinName(name string) bool {
	for _, p := range builtinPrefixes {
		if len(name) >= len(p) && name[:len(p)] == p {
			return true
		}
	}
	return false
}

// ErrNoMain is returned by entry-point helpers when a module lacks a
// main function.
var ErrNoMain = errors.New("ir: module has no @main function")
