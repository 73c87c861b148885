package vm

import (
	"fmt"
	"sync"

	"polar/internal/heap"
	"polar/internal/ir"
	"polar/internal/telemetry/profile"
)

// Program is the immutable, execution-ready form of a module: validated
// once, globals laid out once, function handles and per-block site names
// precomputed once. A Program is safe for concurrent use — any number of
// goroutines may stamp out Instances from it simultaneously — and the
// module it wraps must not be mutated after Compile.
//
// The split exists because the paper's evaluation is embarrassingly
// parallel (every workload × config × rep is an independent run): the
// per-run cost should be a cheap Instance, not a re-validation and
// re-layout of the whole module.
type Program struct {
	mod *ir.Module

	// globals maps global name -> address; the layout is fixed at
	// compile time and identical for every instance.
	globals map[string]uint64
	// globalInits records the (address, bytes) writes each fresh
	// instance replays to initialize its memory image.
	globalInits []globalInit

	// funcs and funcHandles resolve call targets and function-pointer
	// constants without the per-call linear scan Module.Func performs.
	funcs       map[string]*ir.Func
	funcHandles map[string]int64

	// siteNames interns the "@fn.block" site string for every block in
	// the module, so Call.Site and the profiler never re-intern
	// identical strings across runs (they used to be rebuilt per VM).
	siteNames map[*ir.Block]string

	// bcFuncs is the lowered bytecode for every function (index-aligned
	// with mod.Funcs); funcIdx maps function name -> that index, and
	// builtinSlot maps every non-module callee name the lowering saw to
	// its slot in the per-instance VM.builtinSlots table. All three are
	// produced once at Compile time and shared read-only by instances.
	bcFuncs     []*bcFunc
	funcIdx     map[string]int
	builtinSlot map[string]int

	// getptrSites maps each olr_getptr source instruction to its
	// ordinal in lowering order (numberGetptrSites); the dispatch loops
	// read the layout cache at these sites only.
	getptrSites map[*ir.Instr]int32

	// observed is the unfused lowering (index-aligned with bcFuncs) that
	// taint runs and runs with the instruction log attached execute;
	// built at most once, on first use (observedFuncs).
	observedOnce sync.Once
	observed     []*bcFunc
}

type globalInit struct {
	addr uint64
	data []byte
}

// Compile validates m and precomputes everything runs share. The module
// must not be mutated afterwards; Clone it first if the caller keeps
// rewriting it. The same module always produces byte-identical lowered
// code — see Fingerprint.
func Compile(m *ir.Module) (*Program, error) {
	if err := ir.Validate(m); err != nil {
		return nil, err
	}
	p := &Program{
		mod:         m,
		globals:     make(map[string]uint64, len(m.Globals)),
		funcs:       make(map[string]*ir.Func, len(m.Funcs)),
		funcHandles: make(map[string]int64, len(m.Funcs)),
		siteNames:   make(map[*ir.Block]string),
		funcIdx:     make(map[string]int, len(m.Funcs)),
		builtinSlot: make(map[string]int),
		getptrSites: make(map[*ir.Instr]int32),
	}
	addr := uint64(GlobalBase)
	for _, g := range m.Globals {
		addr = (addr + 15) &^ 15
		p.globals[g.Name] = addr
		if len(g.Init) > 0 {
			p.globalInits = append(p.globalInits, globalInit{addr: addr, data: g.Init})
		}
		addr += uint64(g.Size)
	}
	for i, f := range m.Funcs {
		p.funcs[f.Name] = f
		p.funcIdx[f.Name] = i
		p.funcHandles[f.Name] = int64(0x7f00_0000_0000 + uint64(i)*16)
		for _, b := range f.Blocks {
			p.siteNames[b] = "@" + f.Name + "." + b.Name
		}
	}
	// Number the olr_getptr sites, then lower every function to fused
	// flat bytecode (needs the complete funcIdx for direct callee
	// binding).
	p.numberGetptrSites()
	p.bcFuncs = p.lowerAll(true)
	return p, nil
}

// Fingerprint hashes the complete lowered instruction stream (opcodes,
// operand kinds and values, micro-op sequences, weights, getptr sites,
// block layout) into a stable 64-bit FNV-1a digest. Two Programs with
// equal fingerprints execute identical bytecode; the lowering golden
// and the determinism gate assert that compiling the same module twice
// agrees here.
func (p *Program) Fingerprint() uint64 {
	h := uint64(fnvOffset64)
	mix := func(x uint64) {
		for i := 0; i < 8; i++ {
			h ^= x & 0xff
			h *= fnvPrime64
			x >>= 8
		}
	}
	mixArg := func(a bcArg) {
		if a.reg {
			mix(1)
		} else {
			mix(0)
		}
		mix(uint64(a.v))
	}
	for _, bf := range p.bcFuncs {
		mix(uint64(len(bf.code)))
		mix(uint64(len(bf.blocks)))
		mix(uint64(bf.numRegs))
		mix(uint64(len(bf.consts)))
		for i := range bf.consts {
			mix(uint64(uint32(bf.consts[i].slot)))
			mix(uint64(bf.consts[i].val))
		}
		for bi := range bf.blocks {
			mix(uint64(bf.blocks[bi].start))
			mix(uint64(bf.blocks[bi].cost))
		}
		for pc := range bf.code {
			in := &bf.code[pc]
			mix(uint64(in.op))
			mix(uint64(in.kind))
			mix(uint64(in.signShift))
			mix(uint64(uint32(in.dest)))
			mix(uint64(uint32(in.d2)))
			mix(uint64(uint32(in.size)))
			mix(uint64(uint32(in.off)))
			mix(uint64(uint32(in.t0)))
			mix(uint64(uint32(in.t1)))
			mix(uint64(uint32(in.ic)))
			mixArg(in.a)
			mixArg(in.b)
			mixArg(in.c)
			mix(uint64(len(in.args)))
			for i := range in.args {
				mixArg(in.args[i])
			}
			mix(uint64(len(in.micro)))
			for mi := range in.micro {
				m := &in.micro[mi]
				mix(uint64(m.op))
				mix(uint64(m.kind))
				mix(uint64(m.signShift))
				if m.aReg {
					mix(1)
				} else {
					mix(0)
				}
				if m.bReg {
					mix(1)
				} else {
					mix(0)
				}
				mix(uint64(uint32(m.dest)))
				mix(uint64(uint32(m.size)))
				mix(uint64(uint32(m.off)))
				mix(uint64(uint32(m.t1)))
				mix(uint64(m.a))
				mix(uint64(m.b))
			}
		}
	}
	return h
}

// LoweredFuncStats summarizes the lowered form of one function for
// static introspection (cmd/polarstat).
type LoweredFuncStats struct {
	Name         string `json:"name"`
	SourceInstrs int    `json:"source_instrs"`
	Dispatches   int    `json:"dispatches"`
	FusedRuns    int    `json:"fused_runs"`
	FusedMicros  int    `json:"fused_micros"`
	ClassicPairs int    `json:"classic_pairs"`
	ICSites      int    `json:"ic_sites"`
	OperandRegs  int    `json:"operand_regs"`
	SourceRegs   int    `json:"source_regs"`
}

// LoweredStats reports per-function lowering statistics: how many
// dispatches the flat code needs for how many source instructions,
// where the fuser collapsed runs, how many olr_getptr sites carry
// inline caches, and how far register allocation shrank the operand
// file.
func (p *Program) LoweredStats() []LoweredFuncStats {
	out := make([]LoweredFuncStats, 0, len(p.bcFuncs))
	for _, bf := range p.bcFuncs {
		s := LoweredFuncStats{
			Name:        bf.fn.Name,
			Dispatches:  len(bf.code),
			OperandRegs: bf.numRegs,
			SourceRegs:  bf.fn.NumRegs,
		}
		for pc := range bf.code {
			in := &bf.code[pc]
			s.SourceInstrs += int(in.weight())
			switch {
			case in.op == bcFused:
				s.FusedRuns++
				s.FusedMicros += len(in.micro)
			case in.op >= bcFieldLoad:
				s.ClassicPairs++
			}
			if in.ic >= 0 {
				s.ICSites++
			}
		}
		out = append(out, s)
	}
	return out
}

// Module returns the compiled module. Treat it as read-only.
func (p *Program) Module() *ir.Module { return p.mod }

// Func resolves a function by name (nil if absent) without scanning.
func (p *Program) Func(name string) *ir.Func { return p.funcs[name] }

// SiteName returns the interned "@fn.block" site string for a block of
// the compiled module ("" for foreign blocks).
func (p *Program) SiteName(b *ir.Block) string { return p.siteNames[b] }

// NewInstance stamps out a fresh VM over the program: a private memory
// image, heap and register state sharing the compiled metadata. The
// instance itself is single-threaded (run one per goroutine), but any
// number of instances may run concurrently.
func (p *Program) NewInstance(opts ...Option) (*VM, error) {
	v := &VM{
		Mod:      p.mod,
		prog:     p,
		Mem:      newMemory(),
		builtins: make(map[string]Builtin),
		fuel:     defaultFuel,
		stackTop: StackBase,
		objects:  make(map[uint64]*ir.StructType),
	}
	for _, o := range opts {
		o(v)
	}
	if v.taint != nil || v.instrLog != nil {
		v.obsFuncs = p.observedFuncs()
	}
	// The slot table must exist before any RegisterBuiltin call (the
	// defaults below, core.Runtime.Attach later) so every registration
	// lands in both the name map and the bytecode callee table.
	v.builtinSlots = make([]Builtin, len(p.builtinSlot))
	heapOpts := []heap.Option{heap.WithQuarantine(v.quarantine)}
	if v.heapRand != 0 {
		heapOpts = append(heapOpts, heap.WithRandomPlacement(v.heapRand))
	}
	if v.tel != nil {
		heapOpts = append(heapOpts, heap.WithTelemetry(v.tel))
	}
	v.Heap = heap.New(HeapBase, HeapSize, heapOpts...)
	if v.prof != nil {
		v.profSites = make(map[*ir.Block]*profile.SiteCounts)
	}
	if v.xt != nil {
		v.xtBlocks = make(map[*ir.Func][]uint32)
		v.xtFuncs = make(map[*ir.Func]uint32)
		// Every record but blocks and calls comes from the bus (raw
		// allocs/frees, fuel checkpoints, the runtime's events).
		// AttachOnce keeps a writer shared with core subscribed once.
		if v.tel != nil {
			v.tel.Bus.AttachOnce(v.xt)
		}
	}
	v.fuelLeft = v.fuel
	if v.covOn {
		v.coverage = make([]byte, coverageSize)
	}
	for _, gi := range p.globalInits {
		if err := v.Mem.WriteBytes(gi.addr, gi.data); err != nil {
			return nil, fmt.Errorf("vm: init global at 0x%x: %w", gi.addr, err)
		}
	}
	registerDefaultBuiltins(v)
	return v, nil
}
