package workload

import "polar/internal/ir"

// Mini-libjpeg: a JPEG marker-segment parser standing in for
// libjpeg-turbo 1.5.2. The marker framing is real (0xFF-prefixed codes,
// big-endian segment lengths) and each segment handler populates the
// corresponding libjpeg object type from Table I.
func LibJPEG() *Workload {
	m := buildJPEGModule()
	return &Workload{
		Name:        "libjpeg-turbo-1.5.2",
		Description: "JPEG marker parser: per-segment decoder object population",
		Module:      m,
		Input:       CanonicalJPEG(),
		ExpectedTainted: []string{
			"bitread_working_state", "huff_entropy_decoder", "jpeg_component_info",
			"jpeg_color_deconverter", "jpeg_decompress_struct", "jpeg_error_mgr",
			"savable_state", "tjinstance",
		},
		PaperTaintedCount: 8,
	}
}

func buildJPEGModule() *ir.Module {
	m := ir.NewModule("libjpeg")
	tj := m.MustStruct(ir.NewStruct("tjinstance",
		ir.Field{Name: "handle", Type: ir.Raw},
		ir.Field{Name: "width", Type: ir.I32},
		ir.Field{Name: "height", Type: ir.I32},
		ir.Field{Name: "subsamp", Type: ir.I32},
		ir.Field{Name: "flags", Type: ir.I32},
	))
	dec := m.MustStruct(ir.NewStruct("jpeg_decompress_struct",
		ir.Field{Name: "err", Type: ir.Raw},
		ir.Field{Name: "image_width", Type: ir.I32},
		ir.Field{Name: "image_height", Type: ir.I32},
		ir.Field{Name: "num_components", Type: ir.I32},
		ir.Field{Name: "restart_interval", Type: ir.I32},
		ir.Field{Name: "marker_count", Type: ir.I64},
	))
	comp := m.MustStruct(ir.NewStruct("jpeg_component_info",
		ir.Field{Name: "component_id", Type: ir.I32},
		ir.Field{Name: "h_samp_factor", Type: ir.I32},
		ir.Field{Name: "v_samp_factor", Type: ir.I32},
		ir.Field{Name: "quant_tbl_no", Type: ir.I32},
	))
	errMgr := m.MustStruct(ir.NewStruct("jpeg_error_mgr",
		ir.Field{Name: "error_exit", Type: ir.Fptr},
		ir.Field{Name: "msg_code", Type: ir.I32},
		ir.Field{Name: "num_warnings", Type: ir.I64},
	))
	huff := m.MustStruct(ir.NewStruct("huff_entropy_decoder",
		ir.Field{Name: "decode_mcu", Type: ir.Fptr},
		ir.Field{Name: "table_class", Type: ir.I32},
		ir.Field{Name: "table_id", Type: ir.I32},
		ir.Field{Name: "nsymbols", Type: ir.I32},
	))
	bread := m.MustStruct(ir.NewStruct("bitread_working_state",
		ir.Field{Name: "get_buffer", Type: ir.I64},
		ir.Field{Name: "bits_left", Type: ir.I32},
		ir.Field{Name: "next_input_byte", Type: ir.Raw},
	))
	sav := m.MustStruct(ir.NewStruct("savable_state",
		ir.Field{Name: "last_dc_val0", Type: ir.I32},
		ir.Field{Name: "last_dc_val1", Type: ir.I32},
		ir.Field{Name: "last_dc_val2", Type: ir.I32},
	))
	deconv := m.MustStruct(ir.NewStruct("jpeg_color_deconverter",
		ir.Field{Name: "color_convert", Type: ir.Fptr},
		ir.Field{Name: "out_color_components", Type: ir.I32},
	))
	// Untainted: the memory manager is configured before any input.
	m.MustStruct(ir.NewStruct("jpeg_memory_mgr",
		ir.Field{Name: "alloc_small", Type: ir.Fptr},
		ir.Field{Name: "pool_size", Type: ir.I64},
	))

	mustGlobal(m, "jbuf", 8192)

	b := ir.NewFunc(m, "main", ir.I64)
	mm := m.Structs["jpeg_memory_mgr"]
	mp := b.Alloc(mm)
	b.Store(ir.I64, ir.Const(4096), b.FieldPtrName(mm, mp, "pool_size"))

	n := readInputTo(b, "jbuf")
	rd8 := func(off ir.Value) ir.Value {
		return b.Bin(ir.BinAnd, b.Load(ir.I8, b.ElemPtr(ir.I8, ir.Global("jbuf"), off)), ir.Const(0xff))
	}
	rd16 := func(off ir.Value) ir.Value {
		hi := rd8(off)
		lo := rd8(b.Bin(ir.BinAdd, off, ir.Const(1)))
		return b.Bin(ir.BinOr, b.Bin(ir.BinShl, hi, ir.Const(8)), lo)
	}

	// SOI check.
	soi0 := rd8(ir.Const(0))
	soi1 := rd8(ir.Const(1))
	bad := b.Bin(ir.BinOr, b.Cmp(ir.CmpNe, soi0, ir.Const(0xFF)), b.Cmp(ir.CmpNe, soi1, ir.Const(0xD8)))
	b.If("soi", b.Cmp(ir.CmpNe, bad, ir.Const(0)), func() { b.Ret(ir.Const(-1)) }, nil)

	inst := b.Alloc(tj)
	cinfo := b.Alloc(dec)
	em := b.Alloc(errMgr)
	b.Store(ir.Raw, em, b.FieldPtrName(dec, cinfo, "err"))
	b.Store(ir.I64, ir.Const(0), b.FieldPtrName(dec, cinfo, "marker_count"))
	b.Store(ir.I64, ir.Const(0), b.FieldPtrName(errMgr, em, "num_warnings"))
	b.Store(ir.I32, ir.Const(0), b.FieldPtrName(tj, inst, "flags"))

	pos := b.Local(ir.I64)
	b.Store(ir.I64, ir.Const(2), pos)
	b.Br("mk.head")
	b.Block("mk.head")
	p := b.Load(ir.I64, pos)
	more := b.Cmp(ir.CmpLe, p, b.Bin(ir.BinSub, n, ir.Const(4)))
	b.CondBr(more, "mk.body", "mk.done")

	b.Block("mk.body")
	p2 := b.Load(ir.I64, pos)
	ff := rd8(p2)
	code := rd8(b.Bin(ir.BinAdd, p2, ir.Const(1)))
	seglen := rd16(b.Bin(ir.BinAdd, p2, ir.Const(2)))
	dataOff := b.Bin(ir.BinAdd, p2, ir.Const(4))
	mc := b.Load(ir.I64, b.FieldPtrName(dec, cinfo, "marker_count"))
	b.Store(ir.I64, b.Bin(ir.BinAdd, mc, ir.Const(1)), b.FieldPtrName(dec, cinfo, "marker_count"))
	// Bad framing counts a warning via the error manager.
	b.If("frame", b.Cmp(ir.CmpNe, ff, ir.Const(0xFF)), func() {
		w := b.Load(ir.I64, b.FieldPtrName(errMgr, em, "num_warnings"))
		b.Store(ir.I64, b.Bin(ir.BinAdd, w, ir.Const(1)), b.FieldPtrName(errMgr, em, "num_warnings"))
		b.Store(ir.I32, code, b.FieldPtrName(errMgr, em, "msg_code"))
	}, nil)

	// SOF0 (0xC0): frame header -> decompress struct + component info.
	b.If("sof", b.Cmp(ir.CmpEq, code, ir.Const(0xC0)), func() {
		h := rd16(b.Bin(ir.BinAdd, dataOff, ir.Const(1)))
		w := rd16(b.Bin(ir.BinAdd, dataOff, ir.Const(3)))
		nc := rd8(b.Bin(ir.BinAdd, dataOff, ir.Const(5)))
		b.Store(ir.I32, w, b.FieldPtrName(dec, cinfo, "image_width"))
		b.Store(ir.I32, h, b.FieldPtrName(dec, cinfo, "image_height"))
		b.Store(ir.I32, nc, b.FieldPtrName(dec, cinfo, "num_components"))
		b.Store(ir.I32, w, b.FieldPtrName(tj, inst, "width"))
		b.Store(ir.I32, h, b.FieldPtrName(tj, inst, "height"))
		b.If("nccap", b.Cmp(ir.CmpGt, nc, ir.Const(4)), func() {
			b.Store(ir.I32, ir.Const(4), b.FieldPtrName(dec, cinfo, "num_components"))
		}, nil)
		b.CountedLoop("comps", b.Load(ir.I32, b.FieldPtrName(dec, cinfo, "num_components")), func(i ir.Value) {
			ci := b.Alloc(comp)
			base := b.Bin(ir.BinAdd, dataOff, b.Bin(ir.BinAdd, ir.Const(6), b.Bin(ir.BinMul, i, ir.Const(3))))
			b.Store(ir.I32, rd8(base), b.FieldPtrName(comp, ci, "component_id"))
			samp := rd8(b.Bin(ir.BinAdd, base, ir.Const(1)))
			b.Store(ir.I32, b.Bin(ir.BinShr, samp, ir.Const(4)), b.FieldPtrName(comp, ci, "h_samp_factor"))
			b.Store(ir.I32, b.Bin(ir.BinAnd, samp, ir.Const(15)), b.FieldPtrName(comp, ci, "v_samp_factor"))
			b.Store(ir.I32, rd8(b.Bin(ir.BinAdd, base, ir.Const(2))), b.FieldPtrName(comp, ci, "quant_tbl_no"))
		})
		cd := b.Alloc(deconv)
		b.Store(ir.I32, nc, b.FieldPtrName(deconv, cd, "out_color_components"))
	}, nil)

	// DHT (0xC4): Huffman table -> entropy decoder.
	b.If("dht", b.Cmp(ir.CmpEq, code, ir.Const(0xC4)), func() {
		hd := b.Alloc(huff)
		tc := rd8(dataOff)
		b.Store(ir.I32, b.Bin(ir.BinShr, tc, ir.Const(4)), b.FieldPtrName(huff, hd, "table_class"))
		b.Store(ir.I32, b.Bin(ir.BinAnd, tc, ir.Const(15)), b.FieldPtrName(huff, hd, "table_id"))
		nsym := b.Local(ir.I64)
		b.Store(ir.I64, ir.Const(0), nsym)
		b.CountedLoop("bits", ir.Const(16), func(i ir.Value) {
			c := rd8(b.Bin(ir.BinAdd, dataOff, b.Bin(ir.BinAdd, i, ir.Const(1))))
			s := b.Load(ir.I64, nsym)
			b.Store(ir.I64, b.Bin(ir.BinAdd, s, c), nsym)
		})
		b.Store(ir.I32, b.Load(ir.I64, nsym), b.FieldPtrName(huff, hd, "nsymbols"))
	}, nil)

	// DRI (0xDD): restart interval.
	b.If("dri", b.Cmp(ir.CmpEq, code, ir.Const(0xDD)), func() {
		b.Store(ir.I32, rd16(dataOff), b.FieldPtrName(dec, cinfo, "restart_interval"))
	}, nil)

	// SOS (0xDA): entropy-decode loop with bit-reader state objects.
	b.If("sos", b.Cmp(ir.CmpEq, code, ir.Const(0xDA)), func() {
		br := b.Alloc(bread)
		sv := b.Alloc(sav)
		b.Store(ir.I64, ir.Const(0), b.FieldPtrName(bread, br, "get_buffer"))
		b.Store(ir.I32, ir.Const(0), b.FieldPtrName(bread, br, "bits_left"))
		b.Store(ir.I32, ir.Const(0), b.FieldPtrName(sav, sv, "last_dc_val0"))
		scanEnd := b.Bin(ir.BinSub, n, ir.Const(2))
		b.CountedLoop("scan", b.Bin(ir.BinSub, scanEnd, dataOff), func(i ir.Value) {
			c := rd8(b.Bin(ir.BinAdd, dataOff, i))
			buf := b.Load(ir.I64, b.FieldPtrName(bread, br, "get_buffer"))
			b.Store(ir.I64, b.Bin(ir.BinXor, b.Bin(ir.BinShl, buf, ir.Const(3)), c), b.FieldPtrName(bread, br, "get_buffer"))
			dc := b.Load(ir.I32, b.FieldPtrName(sav, sv, "last_dc_val0"))
			b.Store(ir.I32, b.Bin(ir.BinAdd, dc, c), b.FieldPtrName(sav, sv, "last_dc_val0"))
		})
		b.Store(ir.I64, scanEnd, pos) // scan consumes to EOI
	}, nil)

	p3 := b.Load(ir.I64, pos)
	same := b.Cmp(ir.CmpEq, p3, p2)
	b.If("adv", same, func() {
		b.Store(ir.I64, b.Bin(ir.BinAdd, p2, b.Bin(ir.BinAdd, seglen, ir.Const(2))), pos)
	}, nil)
	b.If("eoi", b.Cmp(ir.CmpEq, code, ir.Const(0xD9)), func() { b.Br("mk.done") }, nil)
	b.Br("mk.head")

	b.Block("mk.done")
	chk := b.Load(ir.I64, b.FieldPtrName(dec, cinfo, "marker_count"))
	w := b.Load(ir.I32, b.FieldPtrName(tj, inst, "width"))
	res := b.Bin(ir.BinXor, b.Bin(ir.BinMul, chk, ir.Const(31)), w)
	b.CallVoid("print_i64", res)
	b.Ret(res)
	return m
}

// CanonicalJPEG returns a well-formed marker stream exercising every
// handler.
func CanonicalJPEG() []byte {
	seg := func(code byte, data []byte) []byte {
		l := len(data) + 2
		out := []byte{0xFF, code, byte(l >> 8), byte(l)}
		return append(out, data...)
	}
	var out []byte
	out = append(out, 0xFF, 0xD8) // SOI
	out = append(out, seg(0xE0, []byte("JFIF\x00\x01\x02"))...)
	sof := []byte{8, 0, 48, 0, 64, 3, 1, 0x22, 0, 2, 0x11, 1, 3, 0x11, 1}
	out = append(out, seg(0xC0, sof)...)
	dht := make([]byte, 17+12)
	dht[0] = 0x10
	for i := 1; i <= 16; i++ {
		dht[i] = byte(i % 3)
	}
	out = append(out, seg(0xC4, dht)...)
	out = append(out, seg(0xDD, []byte{0, 8})...)
	out = append(out, seg(0xDA, []byte{3, 1, 0, 2, 0x11, 3, 0x11, 0, 63, 0})...)
	out = append(out, defaultInput(256, 41)...) // entropy-coded data
	out = append(out, 0xFF, 0xD9)               // EOI
	return out
}
