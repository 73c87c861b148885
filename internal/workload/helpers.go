package workload

import (
	"fmt"
	"hash/fnv"

	"polar/internal/ir"
)

// fillerStructs declares struct types with deterministic pseudo-random
// field inventories (3–8 fields mixing integers, floats, pointers and a
// function pointer). The real applications' type inventories are
// unavailable, so the Table I object lists are reproduced by name with
// synthetic bodies; what matters to every experiment is the number of
// classes, their member kinds, and which of them input data reaches.
func fillerStructs(m *ir.Module, names []string) []*ir.StructType {
	out := make([]*ir.StructType, 0, len(names))
	for _, name := range names {
		h := fnv.New64a()
		h.Write([]byte(name))
		seed := h.Sum64()
		nf := 3 + int(seed%6)
		fields := make([]ir.Field, 0, nf)
		for i := 0; i < nf; i++ {
			seed = seed*6364136223846793005 + 1442695040888963407
			var t ir.Type
			switch (seed >> 33) % 7 {
			case 0:
				t = ir.I32
			case 1, 2:
				t = ir.I64
			case 3:
				t = ir.F64
			case 4:
				t = ir.I16
			case 5:
				t = ir.Raw
			default:
				if i == 0 {
					t = ir.Fptr // vtable-like first member
				} else {
					t = ir.I64
				}
			}
			fields = append(fields, ir.Field{Name: fmt.Sprintf("m%d", i), Type: t})
		}
		out = append(out, m.MustStruct(ir.NewStruct(name, fields...)))
	}
	return out
}

// firstFieldOfKind returns the index of the first field whose type size
// is at least minSize and which is a plain integer/float, or 0.
func firstDataField(st *ir.StructType) int {
	for i, f := range st.Fields {
		switch f.Type.(type) {
		case ir.IntType, ir.FloatType:
			return i
		}
	}
	return 0
}

// secondDataField returns a second distinct data field index, or the
// first one if none exists.
func secondDataField(st *ir.StructType) int {
	first := firstDataField(st)
	for i := first + 1; i < len(st.Fields); i++ {
		switch st.Fields[i].Type.(type) {
		case ir.IntType, ir.FloatType:
			return i
		}
	}
	return first
}

func storeTypeFor(st *ir.StructType, field int) ir.Type {
	if t, ok := st.Fields[field].Type.(ir.IntType); ok {
		return t
	}
	if _, ok := st.Fields[field].Type.(ir.FloatType); ok {
		return ir.I64 // bit-pattern store is fine for taint purposes
	}
	return ir.I64
}

// app is the common scaffold for a SPEC mini-app. Build order inside
// @main:
//
//	call @setup()    — allocates the untainted (config/UI-like) objects
//	call @parse()    — reads input, populates the tainted inventory
//	call @compute(). — the app's algorithm core (per-app kernel)
//	ret checksum
type app struct {
	m        *ir.Module
	name     string
	tainted  []*ir.StructType
	untained []*ir.StructType
	objtab   ir.Value // global: pointer table for tainted objects
}

// newApp declares the object inventories and emits setup() and parse().
//
// parse() allocates one instance of every tainted class, stores
// input-derived bytes into its first two data members, and for every
// third class frees + reallocates it under an input-dependent branch
// (life-cycle taint). setup() allocates the untainted classes and
// initializes them with constants only.
func newApp(name string, taintedNames, untaintedNames []string) *app {
	m := ir.NewModule(name)
	a := &app{m: m, name: name}
	a.tainted = fillerStructs(m, taintedNames)
	a.untained = fillerStructs(m, untaintedNames)
	if _, err := m.AddGlobal("objtab", 8*maxInt(1, len(a.tainted)), nil); err != nil {
		panic(err)
	}
	if _, err := m.AddGlobal("cfgtab", 8*maxInt(1, len(a.untained)), nil); err != nil {
		panic(err)
	}

	// setup(): constant-initialized config objects.
	sb := ir.NewFunc(m, "setup", ir.Void)
	for i, st := range a.untained {
		p := sb.Alloc(st)
		fd := firstDataField(st)
		sb.Store(storeTypeFor(st, fd), ir.Const(int64(1000+i)), sb.FieldPtr(st, p, fd))
		slot := sb.ElemPtr(ir.I64, ir.Global("cfgtab"), ir.Const(int64(i)))
		sb.Store(ir.I64, p, slot)
	}
	sb.Ret()

	// parse(): input-driven population of the tainted inventory.
	pb := ir.NewFunc(m, "parse", ir.Void)
	for i, st := range a.tainted {
		p := pb.Alloc(st)
		slot := pb.ElemPtr(ir.I64, ir.Global("objtab"), ir.Const(int64(i)))
		pb.Store(ir.I64, p, slot)
		v := pb.Call("input_byte", ir.Const(int64(i)))
		fd := firstDataField(st)
		pb.Store(storeTypeFor(st, fd), v, pb.FieldPtr(st, p, fd))
		sd := secondDataField(st)
		if sd != fd {
			mixed := pb.Bin(ir.BinMul, v, ir.Const(int64(7+i)))
			pb.Store(storeTypeFor(st, sd), mixed, pb.FieldPtr(st, p, sd))
		}
		if i%3 == 0 {
			// Input-dependent life cycle: free + realloc when the input
			// byte is large.
			cond := pb.Cmp(ir.CmpGt, v, ir.Const(96))
			stLocal := st
			idx := int64(i)
			pb.If(fmt.Sprintf("lc%d", i), cond, func() {
				old := pb.Load(ir.PtrTo(stLocal), pb.ElemPtr(ir.I64, ir.Global("objtab"), ir.Const(idx)))
				pb.Free(old)
				np := pb.Alloc(stLocal)
				fd2 := firstDataField(stLocal)
				pb.Store(storeTypeFor(stLocal, fd2), v, pb.FieldPtr(stLocal, np, fd2))
				pb.Store(ir.I64, np, pb.ElemPtr(ir.I64, ir.Global("objtab"), ir.Const(idx)))
			}, nil)
		}
	}
	pb.Ret()
	a.objtab = ir.Global("objtab")
	return a
}

// finish emits @main and returns the workload. compute must already be
// defined as @compute returning i64 (the checksum).
func (a *app) finish(desc string, input []byte, paperCount int) *Workload {
	b := ir.NewFunc(a.m, "main", ir.I64)
	b.CallVoid("setup")
	b.CallVoid("parse")
	sum := b.Call("compute")
	b.CallVoid("print_i64", sum)
	b.Ret(sum)

	names := make([]string, len(a.tainted))
	for i, st := range a.tainted {
		names[i] = st.Name
	}
	return &Workload{
		Name:              a.name,
		Description:       desc,
		Module:            a.m,
		Input:             input,
		ExpectedTainted:   names,
		PaperTaintedCount: paperCount,
	}
}

// loadObj emits a typed load of tainted-object pointer i from the
// table. The static pointer type lets the instrumentation pass see
// subsequent free/memcpy uses of the register.
func (a *app) loadObj(b *ir.Builder, i int) ir.Value {
	return b.Load(ir.PtrTo(a.tainted[i]), b.ElemPtr(ir.I64, a.objtab, ir.Const(int64(i))))
}

// emitFiller emits n iterations of un-instrumented arithmetic work (the
// I/O-and-arithmetic share of a real application, §V.B: "the performance
// impact ... will be low for applications that focus on other
// operations, such as I/O or arithmetics").
func emitFiller(b *ir.Builder, label string, n int64) ir.Value {
	acc := b.Local(ir.I64)
	b.Store(ir.I64, ir.Const(0x9e37), acc)
	b.CountedLoop(label, ir.Const(n), func(i ir.Value) {
		v := b.Load(ir.I64, acc)
		v = b.Bin(ir.BinXor, v, b.Bin(ir.BinShl, v, ir.Const(13)))
		v = b.Bin(ir.BinXor, v, b.Bin(ir.BinShr, v, ir.Const(7)))
		v = b.Bin(ir.BinAdd, v, i)
		b.Store(ir.I64, v, acc)
	})
	return b.Load(ir.I64, acc)
}

// readInputTo emits: copy the whole input into the named global buffer,
// returning the length register.
func readInputTo(b *ir.Builder, global string) ir.Value {
	n := b.Call("input_len")
	b.Call("input_read", ir.Global(global), ir.Const(0), n)
	return n
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
