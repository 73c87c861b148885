package workload

import "polar/internal/ir"

// Libquantum builds 462.libquantum: quantum-gate simulation over a raw
// floating-point state vector. The real app takes its input as main()
// parameters and propagates it straight into float operations, so
// TaintClass marks no objects (Table I) and the app is absent from
// Fig. 6.
func Libquantum() *Workload {
	a := newApp("462.libquantum",
		nil, // no tainted object types — the paper's key negative result
		[]string{"quantum_reg_desc", "spec_timer"})
	m := a.m
	const n = 2048
	if _, err := m.AddGlobal("state", 8*n, nil); err != nil {
		panic(err)
	}

	b := ir.NewFunc(m, "compute", ir.I64)
	// Initialize amplitudes from the main() argument (register 0 of
	// main is forwarded through a global set in main; here we just use a
	// constant seed — the point is that no input bytes are read).
	b.CountedLoop("init", ir.Const(n), func(i ir.Value) {
		fi := b.ItoF(i)
		amp := b.FBin(ir.BinMul, fi, ir.ConstF(0.00048828125))
		b.Store(ir.F64, amp, b.ElemPtr(ir.F64, ir.Global("state"), i))
	})
	// 24 Hadamard-flavoured passes mixing adjacent amplitudes.
	b.CountedLoop("gates", ir.Const(24), func(g ir.Value) {
		b.CountedLoop("amp", ir.Const(n/2), func(i ir.Value) {
			i2 := b.Bin(ir.BinMul, i, ir.Const(2))
			a0 := b.Load(ir.F64, b.ElemPtr(ir.F64, ir.Global("state"), i2))
			a1 := b.Load(ir.F64, b.ElemPtr(ir.F64, ir.Global("state"), b.Bin(ir.BinAdd, i2, ir.Const(1))))
			s := b.FBin(ir.BinMul, b.FBin(ir.BinAdd, a0, a1), ir.ConstF(0.7071067811865476))
			d := b.FBin(ir.BinMul, b.FBin(ir.BinSub, a0, a1), ir.ConstF(0.7071067811865476))
			b.Store(ir.F64, s, b.ElemPtr(ir.F64, ir.Global("state"), i2))
			b.Store(ir.F64, d, b.ElemPtr(ir.F64, ir.Global("state"), b.Bin(ir.BinAdd, i2, ir.Const(1))))
		})
	})
	// Checksum: integerized probability mass of the first amplitudes.
	acc := b.Local(ir.I64)
	b.Store(ir.I64, ir.Const(0), acc)
	b.CountedLoop("sum", ir.Const(64), func(i ir.Value) {
		av := b.Load(ir.F64, b.ElemPtr(ir.F64, ir.Global("state"), i))
		scaled := b.FtoI(b.FBin(ir.BinMul, av, ir.ConstF(1e6)))
		s := b.Load(ir.I64, acc)
		b.Store(ir.I64, b.Bin(ir.BinAdd, s, scaled), acc)
	})
	b.Ret(b.Load(ir.I64, acc))

	return a.finish(
		"quantum register simulation: pure float ops, no input-dependent objects",
		nil, 0)
}

// H264ref builds 464.h264ref: motion-compensation-flavoured kernel whose
// profile is dominated by typed object copies (Table III: 298M memcpys)
// between picture-buffer objects.
func H264ref() *Workload {
	a := newApp("464.h264ref",
		[]string{
			"InputParameters", "decoded_picture_buffer", "pic_parameter_set_rbsp_t",
			"ImageParameters", "seq_parameter_set_rbsp_t", "frame_store",
			"storable_picture", "slice_t", "macroblock_t", "syntaxelement_t",
			"bitstream_t", "datapartition_t", "motion_params", "colocated_params",
			"wp_params", "decoding_environment_t", "nalu_t",
		},
		[]string{"h264_encoder_ui", "rate_control_cfg"})
	m := a.m
	pic := a.tainted[6] // storable_picture
	const frames = 40
	if _, err := m.AddGlobal("pictab", 8*frames, nil); err != nil {
		panic(err)
	}

	b := ir.NewFunc(m, "compute", ir.I64)
	// Allocate a small decoded-picture buffer of storable_picture
	// objects, initializing every field so copies are deterministic.
	b.CountedLoop("mkpics", ir.Const(frames), func(i ir.Value) {
		p := b.Alloc(pic)
		for fi := range pic.Fields {
			ft := storeTypeFor(pic, fi)
			b.Store(ft, b.Bin(ir.BinMul, i, ir.Const(int64(fi+3))), b.FieldPtr(pic, p, fi))
		}
		b.Store(ir.I64, p, b.ElemPtr(ir.I64, ir.Global("pictab"), i))
	})
	// Motion compensation: 12k typed object copies between pictures,
	// with member reads verifying the copied data.
	acc := b.Local(ir.I64)
	b.Store(ir.I64, ir.Const(0), acc)
	fd := firstDataField(pic)
	b.CountedLoop("mc", ir.Const(6_000), func(i ir.Value) {
		si := b.Bin(ir.BinRem, i, ir.Const(frames))
		di := b.Bin(ir.BinRem, b.Bin(ir.BinAdd, i, ir.Const(7)), ir.Const(frames))
		src := b.Load(ir.PtrTo(pic), b.ElemPtr(ir.I64, ir.Global("pictab"), si))
		dst := b.Load(ir.PtrTo(pic), b.ElemPtr(ir.I64, ir.Global("pictab"), di))
		b.Memcpy(dst, src, ir.Const(int64(pic.Size())))
		v := b.Load(storeTypeFor(pic, fd), b.FieldPtr(pic, dst, fd))
		s := b.Load(ir.I64, acc)
		b.Store(ir.I64, b.Bin(ir.BinAdd, s, v), acc)
	})
	f := emitFiller(b, "dct", 400_000)
	b.Ret(b.Bin(ir.BinXor, b.Load(ir.I64, acc), f))

	return a.finish(
		"motion compensation: hot typed copies across picture-buffer objects",
		defaultInput(1024, 23), 17)
}

// Omnetpp builds 471.omnetpp: a tiny discrete-event simulation. Profile:
// very few object operations of any kind (Table III row is almost
// empty) — overhead should be negligible.
func Omnetpp() *Workload {
	a := newApp("471.omnetpp",
		[]string{
			"cSimulation", "cHead", "Task", "TOmnetApp", "cPar", "cArray",
			"cPar_ExprElem", "MACAddress", "cMessage", "cQueue",
		},
		[]string{"omnet_envir", "tkenv_cfg"})
	m := a.m
	task := a.tainted[2]
	const qcap = 256
	if _, err := m.AddGlobal("evq", 16*qcap, nil); err != nil {
		panic(err)
	}

	b := ir.NewFunc(m, "compute", ir.I64)
	// ~120 Task allocations enqueued into a raw ring buffer.
	b.CountedLoop("spawn", ir.Const(120), func(i ir.Value) {
		p := b.Alloc(task)
		fd := firstDataField(task)
		b.Store(storeTypeFor(task, fd), b.Bin(ir.BinMul, i, ir.Const(37)), b.FieldPtr(task, p, fd))
		slot := b.Bin(ir.BinRem, i, ir.Const(qcap))
		b.Store(ir.I64, p, b.ElemPtr(ir.I64, ir.Global("evq"), b.Bin(ir.BinMul, slot, ir.Const(2))))
	})
	// Drain: ~650 member accesses total across the event loop.
	acc := b.Local(ir.I64)
	b.Store(ir.I64, ir.Const(0), acc)
	fd := firstDataField(task)
	b.CountedLoop("drain", ir.Const(650), func(i ir.Value) {
		slot := b.Bin(ir.BinRem, i, ir.Const(120))
		p := b.Load(ir.PtrTo(task), b.ElemPtr(ir.I64, ir.Global("evq"), b.Bin(ir.BinMul, slot, ir.Const(2))))
		v := b.Load(storeTypeFor(task, fd), b.FieldPtr(task, p, fd))
		s := b.Load(ir.I64, acc)
		b.Store(ir.I64, b.Bin(ir.BinAdd, s, v), acc)
	})
	// One task retires (Table III: a single free).
	first := b.Load(ir.PtrTo(task), b.ElemPtr(ir.I64, ir.Global("evq"), ir.Const(0)))
	b.Free(first)
	f := emitFiller(b, "fes", 400_000)
	b.Ret(b.Bin(ir.BinXor, b.Load(ir.I64, acc), f))

	return a.finish(
		"discrete-event simulation: sparse object activity, arithmetic-bound",
		defaultInput(512, 29), 10)
}

// Astar builds 473.astar: breadth-first flood over a raw grid with a
// handful of region-management objects and a few hundred typed buffer
// copies (Table III: 12 allocs, 354K memcpys scaled down, 204 member
// accesses).
func Astar() *Workload {
	a := newApp("473.astar",
		[]string{
			"wayobj", "way2obj", "regmngobj", "workinfot",
			"createwaymnginfot", "regboundobj", "regobj",
		},
		[]string{"astar_mapcfg"})
	m := a.m
	work := a.tainted[3] // workinfot
	const side = 48
	if _, err := m.AddGlobal("grid", side*side, nil); err != nil {
		panic(err)
	}
	if _, err := m.AddGlobal("dist", 8*side*side, nil); err != nil {
		panic(err)
	}

	b := ir.NewFunc(m, "compute", ir.I64)
	// Obstacles from input.
	b.CountedLoop("map", ir.Const(side*side), func(i ir.Value) {
		v := b.Call("input_byte", b.Bin(ir.BinRem, i, ir.Const(200)))
		wall := b.Cmp(ir.CmpGt, v, ir.Const(230))
		b.Store(ir.I8, wall, b.ElemPtr(ir.I8, ir.Global("grid"), i))
	})
	// Relaxation sweeps (un-instrumented grid work).
	b.CountedLoop("sweeps", ir.Const(6), func(s ir.Value) {
		b.CountedLoop("cells", ir.Const(side*side-1), func(i ir.Value) {
			w := b.Load(ir.I8, b.ElemPtr(ir.I8, ir.Global("grid"), i))
			open := b.Cmp(ir.CmpEq, w, ir.Const(0))
			b.If("relax", open, func() {
				d0 := b.Load(ir.I64, b.ElemPtr(ir.I64, ir.Global("dist"), i))
				d1 := b.Load(ir.I64, b.ElemPtr(ir.I64, ir.Global("dist"), b.Bin(ir.BinAdd, i, ir.Const(1))))
				nv := b.Bin(ir.BinAdd, d0, ir.Const(1))
				lt := b.Cmp(ir.CmpLt, nv, d1)
				b.If("upd", lt, func() {
					b.Store(ir.I64, nv, b.ElemPtr(ir.I64, ir.Global("dist"), b.Bin(ir.BinAdd, i, ir.Const(1))))
				}, nil)
			}, nil)
		})
	})
	// ~350 typed copies of the work-info object (snapshotting state).
	snap := b.Alloc(work)
	for fi := range work.Fields {
		b.Store(storeTypeFor(work, fi), ir.Const(int64(fi)), b.FieldPtr(work, snap, fi))
	}
	wsrc := a.loadObj(b, 3)
	for fi := range work.Fields {
		b.Store(storeTypeFor(work, fi), ir.Const(int64(fi*3)), b.FieldPtr(work, wsrc, fi))
	}
	b.CountedLoop("snapshots", ir.Const(350), func(i ir.Value) {
		b.Memcpy(snap, wsrc, ir.Const(int64(work.Size())))
	})
	b.Free(snap)
	// ~200 member reads of the snapshot source.
	acc := b.Local(ir.I64)
	b.Store(ir.I64, ir.Const(0), acc)
	fd := firstDataField(work)
	b.CountedLoop("reads", ir.Const(200), func(i ir.Value) {
		v := b.Load(storeTypeFor(work, fd), b.FieldPtr(work, wsrc, fd))
		s := b.Load(ir.I64, acc)
		b.Store(ir.I64, b.Bin(ir.BinAdd, s, v), acc)
	})
	f := emitFiller(b, "heur", 80_000)
	total := b.Load(ir.I64, b.ElemPtr(ir.I64, ir.Global("dist"), ir.Const(side*side-1)))
	chk := b.Bin(ir.BinAdd, total, b.Load(ir.I64, acc))
	b.Ret(b.Bin(ir.BinXor, chk, f))

	return a.finish(
		"grid path relaxation with region-management object snapshots",
		defaultInput(256, 31), 7)
}

// Xalancbmk builds 483.xalancbmk: XML-ish tokenizer that allocates a
// string object per token and frees most of them — the app with the
// largest tainted-type inventory of Table I (59 classes).
func Xalancbmk() *Workload {
	a := newApp("483.xalancbmk", xalanTaintedNames(), []string{"xalan_platform", "icu_converter_cfg"})
	m := a.m
	str := a.tainted[0] // XalanDOMString
	if _, err := m.AddGlobal("doc", 2048, nil); err != nil {
		panic(err)
	}
	if _, err := m.AddGlobal("livestr", 8*1024, nil); err != nil {
		panic(err)
	}

	b := ir.NewFunc(m, "compute", ir.I64)
	n := readInputTo(b, "doc")
	acc := b.Local(ir.I64)
	live := b.Local(ir.I64)
	b.Store(ir.I64, ir.Const(0), acc)
	b.Store(ir.I64, ir.Const(0), live)
	fd := firstDataField(str)
	sd := secondDataField(str)
	// Tokenize: 2500 tokens; each allocates a string object; ~70% are
	// transient (freed immediately), the rest kept.
	b.CountedLoop("tok", ir.Const(900), func(i ir.Value) {
		off := b.Bin(ir.BinRem, b.Bin(ir.BinMul, i, ir.Const(131)), n)
		c := b.Load(ir.I8, b.ElemPtr(ir.I8, ir.Global("doc"), off))
		p := b.Alloc(str)
		b.Store(storeTypeFor(str, fd), c, b.FieldPtr(str, p, fd))
		b.Store(storeTypeFor(str, sd), i, b.FieldPtr(str, p, sd))
		v := b.Load(storeTypeFor(str, fd), b.FieldPtr(str, p, fd))
		v2 := b.Load(storeTypeFor(str, sd), b.FieldPtr(str, p, sd))
		v3 := b.Load(storeTypeFor(str, fd), b.FieldPtr(str, p, fd))
		s := b.Load(ir.I64, acc)
		mixv := b.Bin(ir.BinAdd, v, b.Bin(ir.BinXor, v2, v3))
		b.Store(ir.I64, b.Bin(ir.BinAdd, s, mixv), acc)
		transient := b.Cmp(ir.CmpNe, b.Bin(ir.BinRem, i, ir.Const(10)), ir.Const(7))
		pl := p
		b.If("keep", transient, func() {
			b.Free(pl)
		}, func() {
			li := b.Load(ir.I64, live)
			b.Store(ir.I64, pl, b.ElemPtr(ir.I64, ir.Global("livestr"), li))
			b.Store(ir.I64, b.Bin(ir.BinAdd, li, ir.Const(1)), live)
		})
	})
	f := emitFiller(b, "xpath", 400_000)
	b.Ret(b.Bin(ir.BinXor, b.Load(ir.I64, acc), f))

	return a.finish(
		"XML tokenizer: per-token string-object allocation, mostly transient",
		xmlishInput(2048), 59)
}

func xalanTaintedNames() []string {
	return []string{
		"XalanDOMString", "XObjectPtr", "XalanQNameByValue", "XalanQNameByReference",
		"MutableNodeRefList", "XalanNode", "XalanElement", "XalanText", "XalanAttr",
		"XalanDocument", "XPathExecutionContextDefault", "XObjectFactoryDefault",
		"XalanSourceTreeElementA", "XalanSourceTreeText", "XalanSourceTreeAttr",
		"XalanSourceTreeDocument", "XStringCached", "XNumber", "XBoolean", "XNodeSet",
		"NodeRefList", "XPathProcessorImpl", "XPathFactoryDefault", "XalanDOMStringCache",
		"XalanDOMStringPool", "XalanDOMStringHashTable", "FormatterToXML",
		"FormatterToText", "XalanOutputStream", "XalanTranscodingServices",
		"ElemTemplate", "ElemTemplateElement", "ElemApplyTemplates", "ElemValueOf",
		"ElemChoose", "ElemForEach", "ElemLiteralResult", "StylesheetRoot",
		"StylesheetHandler", "Stylesheet", "AVT", "AVTPartSimple", "AVTPartXPath",
		"XPath", "XPathEnvSupportDefault", "XObjectResultTreeFragProxy",
		"ResultTreeFragBase", "XalanSourceTreeParserLiaison",
		"XalanDocumentPrefixResolver", "ElemAttributeSet", "NamespacesHandler",
		"KeyTable", "MutableNodeRefListCache", "FunctionSubstring", "FunctionConcat",
		"FunctionTranslate", "CountersTable", "ElemNumber", "XalanNumberFormat",
	}
}
