package workload

import "polar/internal/ir"

// Scale note: operation counts are the Table III profiles scaled down
// (roughly 1/1000–1/2000, capped so each app stays around a million
// interpreted instructions). Ratios between the columns — which app is
// allocation-bound, which is member-access-bound — are what the
// experiments reproduce; see DESIGN.md §5.

// Perlbench builds 400.perlbench: an interpreter-flavoured kernel that
// arena-allocates scalar-value (sv) objects per "opcode" and repeatedly
// walks them updating reference counts. Profile: many allocations, no
// frees (perl's arena), very member-access-heavy.
func Perlbench() *Workload {
	a := newApp("400.perlbench",
		[]string{
			"sv", "stat", "cop", "sublex_info", "jmpenv", "logop", "unop",
			"scan_data_t", "RExC_state_t", "op", "svop", "listop", "pmop",
			"gv", "hv", "av", "cv", "he", "xpv", "regnode",
		},
		[]string{"PerlInterpreter_cfg", "perl_debug_pad", "perlio_funcs"})
	m := a.m
	sv := a.tainted[0]
	const nSV = 700
	if _, err := m.AddGlobal("svtab", 8*nSV, nil); err != nil {
		panic(err)
	}

	b := ir.NewFunc(m, "compute", ir.I64)
	// Arena-allocate nSV scalar values seeded from the input.
	seed0 := b.Call("input_byte", ir.Const(2))
	b.CountedLoop("mk", ir.Const(nSV), func(i ir.Value) {
		p := b.Alloc(sv)
		fd := firstDataField(sv)
		v := b.Bin(ir.BinXor, seed0, b.Bin(ir.BinMul, i, ir.Const(2654435761)))
		b.Store(storeTypeFor(sv, fd), v, b.FieldPtr(sv, p, fd))
		sd := secondDataField(sv)
		b.Store(storeTypeFor(sv, sd), ir.Const(1), b.FieldPtr(sv, p, sd))
		b.Store(ir.I64, p, b.ElemPtr(ir.I64, ir.Global("svtab"), i))
	})
	// 20 refcount sweeps over the arena: 2 member accesses per sv.
	acc := b.Local(ir.I64)
	b.Store(ir.I64, ir.Const(0), acc)
	b.CountedLoop("sweep", ir.Const(10), func(pass ir.Value) {
		b.CountedLoop("walk", ir.Const(nSV), func(i ir.Value) {
			p := b.Load(ir.PtrTo(sv), b.ElemPtr(ir.I64, ir.Global("svtab"), i))
			sd := secondDataField(sv)
			rc := b.Load(storeTypeFor(sv, sd), b.FieldPtr(sv, p, sd))
			b.Store(storeTypeFor(sv, sd), b.Bin(ir.BinAdd, rc, ir.Const(1)), b.FieldPtr(sv, p, sd))
			s := b.Load(ir.I64, acc)
			b.Store(ir.I64, b.Bin(ir.BinAdd, s, rc), acc)
		})
	})
	f := emitFiller(b, "opdispatch", 300_000)
	b.Ret(b.Bin(ir.BinXor, b.Load(ir.I64, acc), f))

	return a.finish(
		"interpreter-style arena: per-op sv allocation, hot refcount sweeps",
		defaultInput(2048, 11), 20)
}

// Bzip2 builds 401.bzip2: run-length encoding over the input with
// stream-state counters kept in a bzFile object. Profile: almost no
// allocation, heavy member access in the byte loop.
func Bzip2() *Workload {
	a := newApp("401.bzip2",
		[]string{"bzFile", "UInt64", "spec_fd_t"},
		[]string{"bz_config", "bz_huff_tables"})
	m := a.m
	bz := a.tainted[0]
	if _, err := m.AddGlobal("inbuf", 4096, nil); err != nil {
		panic(err)
	}
	if _, err := m.AddGlobal("outbuf", 8192, nil); err != nil {
		panic(err)
	}

	b := ir.NewFunc(m, "compute", ir.I64)
	n := readInputTo(b, "inbuf")
	st := a.loadObj(b, 0)
	fd := firstDataField(bz)
	sd := secondDataField(bz)
	b.Store(storeTypeFor(bz, fd), ir.Const(0), b.FieldPtr(bz, st, fd))
	b.Store(storeTypeFor(bz, sd), ir.Const(0), b.FieldPtr(bz, st, sd))
	// Temp stream objects churned per block (36 in the paper's count).
	b.CountedLoop("blocks", ir.Const(36), func(i ir.Value) {
		t := b.Alloc(a.tainted[1]) // UInt64 work item
		fdt := firstDataField(a.tainted[1])
		b.Store(storeTypeFor(a.tainted[1], fdt), i, b.FieldPtr(a.tainted[1], t, fdt))
		b.Free(t)
	})
	// 6 RLE passes: per byte, update run counters in the bzFile object.
	outp := b.Local(ir.I64)
	b.Store(ir.I64, ir.Const(0), outp)
	b.CountedLoop("pass", ir.Const(6), func(pass ir.Value) {
		prev := b.Local(ir.I64)
		run := b.Local(ir.I64)
		b.Store(ir.I64, ir.Const(-1), prev)
		b.Store(ir.I64, ir.Const(0), run)
		b.CountedLoop("bytes", n, func(i ir.Value) {
			c := b.Load(ir.I8, b.ElemPtr(ir.I8, ir.Global("inbuf"), i))
			pv := b.Load(ir.I64, prev)
			same := b.Cmp(ir.CmpEq, c, pv)
			b.If("run", same, func() {
				r := b.Load(ir.I64, run)
				b.Store(ir.I64, b.Bin(ir.BinAdd, r, ir.Const(1)), run)
			}, func() {
				// Flush run: two member updates on the stream object.
				tot := b.Load(storeTypeFor(bz, fd), b.FieldPtr(bz, st, fd))
				r := b.Load(ir.I64, run)
				b.Store(storeTypeFor(bz, fd), b.Bin(ir.BinAdd, tot, r), b.FieldPtr(bz, st, fd))
				b.Store(ir.I64, c, prev)
				b.Store(ir.I64, ir.Const(1), run)
			})
		})
	})
	f := emitFiller(b, "huffman", 300_000)
	crc := b.Load(storeTypeFor(bz, fd), b.FieldPtr(bz, st, fd))
	b.Ret(b.Bin(ir.BinXor, crc, f))

	return a.finish(
		"run-length encoder with stream counters in a bzFile object",
		compressibleInput(3000, 5), 3)
}

// GCC builds 403.gcc: IR-node churn — thousands of short-lived typed
// node allocations whose members are barely touched (Table III shows
// gcc with 51M allocs/50M frees and zero instrumented member accesses).
func GCC() *Workload {
	a := newApp("403.gcc",
		[]string{
			"realvaluetype", "ix86_address", "type_hash", "stat", "cb_args",
			"mem_attrs", "addr_const", "ix86_args", "tree_node", "rtx_def",
			"basic_block_def", "edge_def", "loop", "et_node", "function",
			"expr_status", "emit_status", "varasm_status", "sequence_stack",
			"rtvec_def", "machine_function", "stack_local_entry", "ix86_frame",
			"reg_stat_struct", "insn_link", "df_ref_info", "df_insn_info",
			"value_data", "value_data_entry", "elt_list", "elt_loc_list",
			"cselib_val_struct", "attr_desc",
		},
		[]string{"gcc_options", "lang_hooks", "target_globals"})
	m := a.m

	b := ir.NewFunc(m, "compute", ir.I64)
	churn := []*ir.StructType{a.tainted[2], a.tainted[8], a.tainted[9]} // type_hash, tree_node, rtx_def
	acc := b.Local(ir.I64)
	b.Store(ir.I64, ir.Const(0), acc)
	for ci, st := range churn {
		stl := st
		b.CountedLoop(fmt2("churn", ci), ir.Const(1000), func(i ir.Value) {
			p := b.Alloc(stl)
			b.Free(p)
			s := b.Load(ir.I64, acc)
			b.Store(ir.I64, b.Bin(ir.BinAdd, s, ir.Const(1)), acc)
		})
	}
	f := emitFiller(b, "fold", 800_000)
	b.Ret(b.Bin(ir.BinXor, b.Load(ir.I64, acc), f))

	return a.finish(
		"compiler-style node churn: 12k short-lived typed allocations",
		defaultInput(1024, 3), 33)
}

// MCF builds 429.mcf: a single long-lived network object whose cost and
// flow members are hammered in the arc-scanning loop. Profile: one
// allocation, pure member access, ~100% cache hit (Table III).
func MCF() *Workload {
	a := newApp("429.mcf",
		[]string{"network", "basket"},
		[]string{"mcf_params"})
	m := a.m
	net := a.tainted[0]
	const nArcs = 2048
	if _, err := m.AddGlobal("arcs", 16*nArcs, nil); err != nil {
		panic(err)
	}

	b := ir.NewFunc(m, "compute", ir.I64)
	p := a.loadObj(b, 0)
	fd := firstDataField(net)
	sd := secondDataField(net)
	b.Store(storeTypeFor(net, fd), ir.Const(0), b.FieldPtr(net, p, fd))
	b.Store(storeTypeFor(net, sd), ir.Const(0), b.FieldPtr(net, p, sd))
	// Initialize arc costs (raw array: un-instrumented).
	b.CountedLoop("initarcs", ir.Const(nArcs), func(i ir.Value) {
		c := b.Bin(ir.BinRem, b.Bin(ir.BinMul, i, ir.Const(48271)), ir.Const(9973))
		b.Store(ir.I64, c, b.ElemPtr(ir.I64, ir.Global("arcs"), b.Bin(ir.BinMul, i, ir.Const(2))))
	})
	// 5 simplex-ish sweeps: per arc, two member accesses on the network.
	b.CountedLoop("sweep", ir.Const(3), func(pass ir.Value) {
		b.CountedLoop("arcs", ir.Const(nArcs), func(i ir.Value) {
			c := b.Load(ir.I64, b.ElemPtr(ir.I64, ir.Global("arcs"), b.Bin(ir.BinMul, i, ir.Const(2))))
			tot := b.Load(storeTypeFor(net, fd), b.FieldPtr(net, p, fd))
			b.Store(storeTypeFor(net, fd), b.Bin(ir.BinAdd, tot, c), b.FieldPtr(net, p, fd))
		})
	})
	f := emitFiller(b, "pricing", 400_000)
	res := b.Load(storeTypeFor(net, fd), b.FieldPtr(net, p, fd))
	b.Ret(b.Bin(ir.BinXor, res, f))

	return a.finish(
		"min-cost-flow arc sweeps against one long-lived network object",
		defaultInput(512, 7), 2)
}

// Gobmk builds 445.gobmk: board-scanning evaluation with dragon/worm
// statistics objects updated per point — the most member-access-heavy
// app of Table III after sjeng.
func Gobmk() *Workload {
	a := newApp("445.gobmk",
		[]string{
			"move_data", "SGFTree_t", "gg_rand_state", "worm_data", "dragon_data",
			"Hash_data", "string_data", "board_state", "eye_data", "half_eye_data",
			"surround_data", "dfa_rt_t", "pattern_data", "connection_data",
			"readresult", "hashnode", "cache_stats", "SGFProperty_t", "SGFNode_t",
			"gomoku_state", "owl_move_data",
		},
		[]string{"gobmk_ui", "sgf_renderer"})
	m := a.m
	dragon := a.tainted[4]
	const board = 361 // 19x19
	if _, err := m.AddGlobal("board", board, nil); err != nil {
		panic(err)
	}

	b := ir.NewFunc(m, "compute", ir.I64)
	// Seed the board from input bytes.
	b.CountedLoop("seed", ir.Const(board), func(i ir.Value) {
		v := b.Call("input_byte", b.Bin(ir.BinRem, i, ir.Const(64)))
		st3 := b.Bin(ir.BinRem, v, ir.Const(3))
		b.Store(ir.I8, st3, b.ElemPtr(ir.I8, ir.Global("board"), i))
	})
	// 40 small per-move scratch allocations.
	mv := a.tainted[0]
	b.CountedLoop("moves", ir.Const(40), func(i ir.Value) {
		p := b.Alloc(mv)
		fd := firstDataField(mv)
		b.Store(storeTypeFor(mv, fd), i, b.FieldPtr(mv, p, fd))
	})
	// 40 evaluation passes; per point, update dragon statistics (two
	// member accesses).
	d := a.loadObj(b, 4)
	fd := firstDataField(dragon)
	b.Store(storeTypeFor(dragon, fd), ir.Const(0), b.FieldPtr(dragon, d, fd))
	b.CountedLoop("eval", ir.Const(20), func(pass ir.Value) {
		b.CountedLoop("pts", ir.Const(board), func(i ir.Value) {
			s := b.Load(ir.I8, b.ElemPtr(ir.I8, ir.Global("board"), i))
			cur := b.Load(storeTypeFor(dragon, fd), b.FieldPtr(dragon, d, fd))
			b.Store(storeTypeFor(dragon, fd), b.Bin(ir.BinAdd, cur, s), b.FieldPtr(dragon, d, fd))
		})
	})
	f := emitFiller(b, "patterns", 400_000)
	res := b.Load(storeTypeFor(dragon, fd), b.FieldPtr(dragon, d, fd))
	b.Ret(b.Bin(ir.BinXor, res, f))

	return a.finish(
		"Go board evaluation sweeps updating dragon statistics objects",
		defaultInput(512, 13), 21)
}

// Hmmer builds 456.hmmer: a Viterbi-flavoured dynamic program over a
// raw score matrix, with per-cell accumulator updates in one long-lived
// comp object. Profile: one allocation, member-access-heavy.
func Hmmer() *Workload {
	a := newApp("456.hmmer",
		[]string{"seqinfo_s", "comp", "exec", "ssifile_s"},
		[]string{"hmmer_alphabet"})
	m := a.m
	comp := a.tainted[1]
	const rows, cols = 64, 96
	if _, err := m.AddGlobal("dp", 8*cols, nil); err != nil {
		panic(err)
	}
	if _, err := m.AddGlobal("seq", 256, nil); err != nil {
		panic(err)
	}

	b := ir.NewFunc(m, "compute", ir.I64)
	b.Call("input_read", ir.Global("seq"), ir.Const(0), ir.Const(256))
	c := a.loadObj(b, 1)
	fd := firstDataField(comp)
	b.Store(storeTypeFor(comp, fd), ir.Const(0), b.FieldPtr(comp, c, fd))
	b.CountedLoop("row", ir.Const(rows), func(r ir.Value) {
		b.CountedLoop("col", ir.Const(cols), func(j ir.Value) {
			prev := b.Load(ir.I64, b.ElemPtr(ir.I64, ir.Global("dp"), j))
			sc := b.Load(ir.I8, b.ElemPtr(ir.I8, ir.Global("seq"), b.Bin(ir.BinRem, b.Bin(ir.BinAdd, r, j), ir.Const(256))))
			nv := b.Bin(ir.BinAdd, prev, sc)
			b.Store(ir.I64, nv, b.ElemPtr(ir.I64, ir.Global("dp"), j))
			// Best-score accumulator in the comp object (2 accesses).
			best := b.Load(storeTypeFor(comp, fd), b.FieldPtr(comp, c, fd))
			gt := b.Cmp(ir.CmpGt, nv, best)
			b.If("best", gt, func() {
				b.Store(storeTypeFor(comp, fd), nv, b.FieldPtr(comp, c, fd))
			}, nil)
		})
	})
	f := emitFiller(b, "posterior", 300_000)
	res := b.Load(storeTypeFor(comp, fd), b.FieldPtr(comp, c, fd))
	b.Ret(b.Bin(ir.BinXor, res, f))

	return a.finish(
		"profile-HMM dynamic program with score accumulators in a comp object",
		defaultInput(256, 17), 4)
}

// Sjeng builds 458.sjeng: the paper's worst case (~30% overhead) — a
// move-generation loop that allocates, copies and frees a move object
// per candidate move. "The major bottleneck of the program's
// performance is object allocation/deallocation" (§V.B).
func Sjeng() *Workload {
	a := newApp("458.sjeng",
		[]string{"move_s", "move_x"},
		[]string{"sjeng_book"})
	m := a.m
	moveS := a.tainted[0]
	moveX := a.tainted[1]

	b := ir.NewFunc(m, "compute", ir.I64)
	acc := b.Local(ir.I64)
	b.Store(ir.I64, ir.Const(0), acc)
	scratch := a.loadObj(b, 1) // long-lived move_x the generator copies into
	fdX := firstDataField(moveX)
	b.Store(storeTypeFor(moveX, fdX), ir.Const(0), b.FieldPtr(moveX, scratch, fdX))
	b.CountedLoop("gen", ir.Const(4000), func(i ir.Value) {
		p := b.Alloc(moveS)
		fd := firstDataField(moveS)
		sd := secondDataField(moveS)
		from := b.Bin(ir.BinRem, b.Bin(ir.BinMul, i, ir.Const(0x45d9f3b)), ir.Const(64))
		to := b.Bin(ir.BinRem, b.Bin(ir.BinMul, i, ir.Const(0x119de1f3)), ir.Const(64))
		b.Store(storeTypeFor(moveS, fd), from, b.FieldPtr(moveS, p, fd))
		b.Store(storeTypeFor(moveS, sd), to, b.FieldPtr(moveS, p, sd))
		// Copy the candidate into the scratch move (typed memcpy).
		q := b.Alloc(moveS)
		b.Memcpy(q, p, ir.Const(int64(moveS.Size())))
		got := b.Load(storeTypeFor(moveS, sd), b.FieldPtr(moveS, q, sd))
		s := b.Load(ir.I64, acc)
		b.Store(ir.I64, b.Bin(ir.BinAdd, s, got), acc)
		// Board-state updates against the long-lived scratch move: the
		// repeated same-object accesses behind sjeng's high cache-hit
		// rate in Table III.
		for u := 0; u < 4; u++ {
			cur := b.Load(storeTypeFor(moveX, fdX), b.FieldPtr(moveX, scratch, fdX))
			b.Store(storeTypeFor(moveX, fdX), b.Bin(ir.BinAdd, cur, got), b.FieldPtr(moveX, scratch, fdX))
		}
		b.Free(p)
		b.Free(q)
	})
	f := emitFiller(b, "evalboard", 500_000)
	b.Ret(b.Bin(ir.BinXor, b.Load(ir.I64, acc), f))

	return a.finish(
		"chess move generation: per-move object alloc/copy/free churn (worst case)",
		defaultInput(128, 19), 2)
}

func fmt2(prefix string, i int) string {
	return prefix + string(rune('a'+i))
}
