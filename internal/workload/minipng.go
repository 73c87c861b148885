package workload

import (
	"encoding/binary"

	"polar/internal/ir"
)

// Mini-libpng: a PNG-style chunk parser standing in for libpng 1.6.34.
// The container format is real (signature, length/type/data/crc chunks,
// big-endian lengths) and each chunk handler populates the corresponding
// libpng object type, so TaintClass sees exactly the object flow the
// paper's Table I row reports. Six deliberately preserved bug patterns
// reproduce the shape of the CVEs in Table IV; see LibPNGCVECases.
//
// Deviation note: Table I counts 8 tainted libpng objects; our parser
// has 9 because Table IV requires both png_color (CVE-2015-8126) and
// png_unknown_chunk (CVE-2013-7353) to exist, and we keep the 7
// explicitly named Table I types too. CVE-2015-0973's "png_byte" is a
// scalar typedef in libpng and has no struct analogue here.

func le32(tag string) int64 {
	return int64(int32(binary.LittleEndian.Uint32([]byte(tag))))
}

var (
	tagIHDR = le32("IHDR")
	tagPLTE = le32("PLTE")
	tagCHRM = le32("cHRM")
	tagBKGD = le32("bKGD")
	tagTEXT = le32("tEXt")
	tagTIME = le32("tIME")
	tagIDAT = le32("IDAT")
	tagIEND = le32("IEND")
)

// pngTaintedNames lists the randomization-candidate object types.
func pngTaintedNames() []string {
	return []string{
		"png_struct_def", "png_info_def", "png_xy", "png_XYZ",
		"png_color16_struct", "png_text", "png_time_struct", "png_color",
		"png_unknown_chunk",
	}
}

// LibPNG builds the mini-libpng workload with its well-formed canonical
// input (every chunk type present → all 9 object types tainted).
func LibPNG() *Workload {
	m := buildPNGModule()
	return &Workload{
		Name:              "libpng-1.6.34",
		Description:       "PNG chunk parser: per-chunk object population, preserved CVE bug shapes",
		Module:            m,
		Input:             CanonicalPNG(),
		ExpectedTainted:   pngTaintedNames(),
		PaperTaintedCount: 8,
	}
}

func buildPNGModule() *ir.Module {
	m := ir.NewModule("libpng")
	pngStruct := m.MustStruct(ir.NewStruct("png_struct_def",
		ir.Field{Name: "error_fn", Type: ir.Fptr},
		ir.Field{Name: "width", Type: ir.I32},
		ir.Field{Name: "height", Type: ir.I32},
		ir.Field{Name: "bit_depth", Type: ir.I32},
		ir.Field{Name: "color_type", Type: ir.I32},
		ir.Field{Name: "chunk_count", Type: ir.I64},
		ir.Field{Name: "crc", Type: ir.I64},
	))
	pngInfo := m.MustStruct(ir.NewStruct("png_info_def",
		ir.Field{Name: "width", Type: ir.I32},
		ir.Field{Name: "height", Type: ir.I32},
		ir.Field{Name: "num_text", Type: ir.I32},
		ir.Field{Name: "num_palette", Type: ir.I32},
		ir.Field{Name: "valid", Type: ir.I64},
		ir.Field{Name: "text_ptr", Type: ir.Raw},
	))
	pngXY := m.MustStruct(ir.NewStruct("png_xy",
		ir.Field{Name: "redx", Type: ir.I32}, ir.Field{Name: "redy", Type: ir.I32},
		ir.Field{Name: "greenx", Type: ir.I32}, ir.Field{Name: "greeny", Type: ir.I32},
		ir.Field{Name: "bluex", Type: ir.I32}, ir.Field{Name: "bluey", Type: ir.I32},
		ir.Field{Name: "whitex", Type: ir.I32}, ir.Field{Name: "whitey", Type: ir.I32},
	))
	pngXYZ := m.MustStruct(ir.NewStruct("png_XYZ",
		ir.Field{Name: "redX", Type: ir.F64}, ir.Field{Name: "redY", Type: ir.F64},
		ir.Field{Name: "greenX", Type: ir.F64}, ir.Field{Name: "greenY", Type: ir.F64},
		ir.Field{Name: "blueX", Type: ir.F64}, ir.Field{Name: "blueY", Type: ir.F64},
	))
	pngColor16 := m.MustStruct(ir.NewStruct("png_color16_struct",
		ir.Field{Name: "index", Type: ir.I8},
		ir.Field{Name: "red", Type: ir.I16}, ir.Field{Name: "green", Type: ir.I16},
		ir.Field{Name: "blue", Type: ir.I16}, ir.Field{Name: "gray", Type: ir.I16},
	))
	pngText := m.MustStruct(ir.NewStruct("png_text",
		ir.Field{Name: "compression", Type: ir.I32},
		ir.Field{Name: "key", Type: ir.I64},
		ir.Field{Name: "text_length", Type: ir.I64},
		ir.Field{Name: "text", Type: ir.Raw},
	))
	pngTime := m.MustStruct(ir.NewStruct("png_time_struct",
		ir.Field{Name: "year", Type: ir.I16},
		ir.Field{Name: "month", Type: ir.I8}, ir.Field{Name: "day", Type: ir.I8},
		ir.Field{Name: "hour", Type: ir.I8}, ir.Field{Name: "minute", Type: ir.I8},
		ir.Field{Name: "second", Type: ir.I8},
	))
	pngColor := m.MustStruct(ir.NewStruct("png_color",
		ir.Field{Name: "red", Type: ir.I8},
		ir.Field{Name: "green", Type: ir.I8},
		ir.Field{Name: "blue", Type: ir.I8},
	))
	pngUnknown := m.MustStruct(ir.NewStruct("png_unknown_chunk",
		ir.Field{Name: "name", Type: ir.I64},
		ir.Field{Name: "data", Type: ir.Raw},
		ir.Field{Name: "size", Type: ir.I64},
		ir.Field{Name: "location", Type: ir.I8},
	))
	// Untainted setup type: the error-message table libpng keeps.
	m.MustStruct(ir.NewStruct("png_msg_table",
		ir.Field{Name: "count", Type: ir.I64},
		ir.Field{Name: "buf", Type: ir.Raw},
	))

	mustGlobal(m, "doc", 8192)
	mustGlobal(m, "palette", 768)
	mustGlobal(m, "textbuf", 512)
	mustGlobal(m, "infoptr", 8) // lazily created png_info_def

	// @be32(off) i64: big-endian 32-bit read from @doc.
	be := ir.NewFunc(m, "be32", ir.I64, ir.Param{Name: "off", Type: ir.I64})
	off := be.ParamReg(0)
	b0 := be.Load(ir.I8, be.ElemPtr(ir.I8, ir.Global("doc"), off))
	b1 := be.Load(ir.I8, be.ElemPtr(ir.I8, ir.Global("doc"), be.Bin(ir.BinAdd, off, ir.Const(1))))
	b2 := be.Load(ir.I8, be.ElemPtr(ir.I8, ir.Global("doc"), be.Bin(ir.BinAdd, off, ir.Const(2))))
	b3 := be.Load(ir.I8, be.ElemPtr(ir.I8, ir.Global("doc"), be.Bin(ir.BinAdd, off, ir.Const(3))))
	v := be.Bin(ir.BinOr,
		be.Bin(ir.BinOr,
			be.Bin(ir.BinShl, be.Bin(ir.BinAnd, b0, ir.Const(0xff)), ir.Const(24)),
			be.Bin(ir.BinShl, be.Bin(ir.BinAnd, b1, ir.Const(0xff)), ir.Const(16))),
		be.Bin(ir.BinOr,
			be.Bin(ir.BinShl, be.Bin(ir.BinAnd, b2, ir.Const(0xff)), ir.Const(8)),
			be.Bin(ir.BinAnd, b3, ir.Const(0xff))))
	be.Ret(v)

	buildPNGMain(m, pngStruct, pngInfo, pngXY, pngXYZ, pngColor16, pngText, pngTime, pngColor, pngUnknown)
	return m
}

func mustGlobal(m *ir.Module, name string, size int) {
	if _, err := m.AddGlobal(name, size, nil); err != nil {
		panic(err)
	}
}

func buildPNGMain(m *ir.Module, pngStruct, pngInfo, pngXY, pngXYZ, pngColor16, pngText, pngTime, pngColor, pngUnknown *ir.StructType) {
	b := ir.NewFunc(m, "main", ir.I64)

	// Untainted setup object.
	msg, _ := m.Structs["png_msg_table"], 0
	mp := b.Alloc(msg)
	b.Store(ir.I64, ir.Const(47), b.FieldPtrName(msg, mp, "count"))

	n := readInputTo(b, "doc")
	// Signature check (137 'P' 'N' 'G').
	s0 := b.Load(ir.I8, b.ElemPtr(ir.I8, ir.Global("doc"), ir.Const(0)))
	badSig := b.Cmp(ir.CmpNe, b.Bin(ir.BinAnd, s0, ir.Const(0xff)), ir.Const(137))
	b.If("sig", badSig, func() { b.Ret(ir.Const(-1)) }, nil)

	png := b.Alloc(pngStruct)
	b.Store(ir.I64, ir.Const(0), b.FieldPtrName(pngStruct, png, "chunk_count"))
	b.Store(ir.I64, ir.Const(0), b.FieldPtrName(pngStruct, png, "crc"))
	b.Store(ir.I32, ir.Const(0), b.FieldPtrName(pngStruct, png, "width"))
	b.Store(ir.I64, ir.Const(0), b.ElemPtr(ir.I64, ir.Global("infoptr"), ir.Const(0)))

	pos := b.Local(ir.I64)
	b.Store(ir.I64, ir.Const(8), pos)

	b.Br("chunk.head")
	b.Block("chunk.head")
	p := b.Load(ir.I64, pos)
	limit := b.Bin(ir.BinSub, n, ir.Const(8))
	more := b.Cmp(ir.CmpLe, p, limit)
	b.CondBr(more, "chunk.body", "chunk.done")

	b.Block("chunk.body")
	p2 := b.Load(ir.I64, pos)
	clen := b.Call("be32", p2)
	ctyp := b.Load(ir.I32, b.ElemPtr(ir.I8, ir.Global("doc"), b.Bin(ir.BinAdd, p2, ir.Const(4))))
	dataOff := b.Bin(ir.BinAdd, p2, ir.Const(8))
	// Bookkeeping on the png struct (tainted by the length word).
	cc := b.Load(ir.I64, b.FieldPtrName(pngStruct, png, "chunk_count"))
	b.Store(ir.I64, b.Bin(ir.BinAdd, cc, ir.Const(1)), b.FieldPtrName(pngStruct, png, "chunk_count"))
	crc := b.Load(ir.I64, b.FieldPtrName(pngStruct, png, "crc"))
	b.Store(ir.I64, b.Bin(ir.BinXor, crc, clen), b.FieldPtrName(pngStruct, png, "crc"))

	loadInfo := func() ir.Value {
		return b.Load(ir.PtrTo(pngInfo), b.ElemPtr(ir.I64, ir.Global("infoptr"), ir.Const(0)))
	}

	// ---- IHDR ----
	isIHDR := b.Cmp(ir.CmpEq, ctyp, ir.Const(tagIHDR))
	b.If("ihdr", isIHDR, func() {
		info := b.Alloc(pngInfo)
		b.Store(ir.I64, info, b.ElemPtr(ir.I64, ir.Global("infoptr"), ir.Const(0)))
		w := b.Call("be32", dataOff)
		h := b.Call("be32", b.Bin(ir.BinAdd, dataOff, ir.Const(4)))
		depth := b.Load(ir.I8, b.ElemPtr(ir.I8, ir.Global("doc"), b.Bin(ir.BinAdd, dataOff, ir.Const(8))))
		ct := b.Load(ir.I8, b.ElemPtr(ir.I8, ir.Global("doc"), b.Bin(ir.BinAdd, dataOff, ir.Const(9))))
		b.Store(ir.I32, w, b.FieldPtrName(pngStruct, png, "width"))
		b.Store(ir.I32, h, b.FieldPtrName(pngStruct, png, "height"))
		b.Store(ir.I32, depth, b.FieldPtrName(pngStruct, png, "bit_depth"))
		b.Store(ir.I32, ct, b.FieldPtrName(pngStruct, png, "color_type"))
		b.Store(ir.I32, w, b.FieldPtrName(pngInfo, info, "width"))
		b.Store(ir.I32, h, b.FieldPtrName(pngInfo, info, "height"))
		b.Store(ir.I64, ir.Const(0), b.FieldPtrName(pngInfo, info, "valid"))
		b.Store(ir.I32, ir.Const(0), b.FieldPtrName(pngInfo, info, "num_text"))
		b.Store(ir.Raw, ir.Const(0), b.FieldPtrName(pngInfo, info, "text_ptr"))
	}, nil)

	// ---- PLTE ---- (CVE-2015-8126 shape: no bound check on num_palette)
	isPLTE := b.Cmp(ir.CmpEq, ctyp, ir.Const(tagPLTE))
	b.If("plte", isPLTE, func() {
		num := b.Bin(ir.BinDiv, clen, ir.Const(3))
		info := loadInfo()
		b.Store(ir.I32, num, b.FieldPtrName(pngInfo, info, "num_palette"))
		// First entry becomes a png_color object.
		c := b.Alloc(pngColor)
		r0 := b.Load(ir.I8, b.ElemPtr(ir.I8, ir.Global("doc"), dataOff))
		g0 := b.Load(ir.I8, b.ElemPtr(ir.I8, ir.Global("doc"), b.Bin(ir.BinAdd, dataOff, ir.Const(1))))
		bl0 := b.Load(ir.I8, b.ElemPtr(ir.I8, ir.Global("doc"), b.Bin(ir.BinAdd, dataOff, ir.Const(2))))
		b.Store(ir.I8, r0, b.FieldPtrName(pngColor, c, "red"))
		b.Store(ir.I8, g0, b.FieldPtrName(pngColor, c, "green"))
		b.Store(ir.I8, bl0, b.FieldPtrName(pngColor, c, "blue"))
		// Copy all declared entries into the 256-entry palette WITHOUT a
		// bound check — num > 256 overflows the palette global.
		cap3 := b.Bin(ir.BinMul, num, ir.Const(3))
		tooBig := b.Cmp(ir.CmpGt, cap3, ir.Const(2000))
		b.If("pltecap", tooBig, func() {
			// Keep the simulated overflow finite.
			b.Memcpy(ir.Global("palette"), b.PtrAdd(ir.Global("doc"), dataOff), ir.Const(2000))
		}, func() {
			b.Memcpy(ir.Global("palette"), b.PtrAdd(ir.Global("doc"), dataOff), cap3)
		})
	}, nil)

	// ---- cHRM ----
	isCHRM := b.Cmp(ir.CmpEq, ctyp, ir.Const(tagCHRM))
	b.If("chrm", isCHRM, func() {
		xy := b.Alloc(pngXY)
		for i, fn := range []string{"whitex", "whitey", "redx", "redy", "greenx", "greeny", "bluex", "bluey"} {
			vv := b.Call("be32", b.Bin(ir.BinAdd, dataOff, ir.Const(int64(i*4))))
			b.Store(ir.I32, vv, b.FieldPtrName(pngXY, xy, fn))
		}
		xyz := b.Alloc(pngXYZ)
		for i, fn := range []string{"redX", "redY", "greenX", "greenY", "blueX", "blueY"} {
			vv := b.Call("be32", b.Bin(ir.BinAdd, dataOff, ir.Const(int64(8+i*4))))
			fv := b.FBin(ir.BinDiv, b.ItoF(vv), ir.ConstF(100000))
			b.Store(ir.F64, fv, b.FieldPtrName(pngXYZ, xyz, fn))
		}
	}, nil)

	// ---- bKGD ----
	isBKGD := b.Cmp(ir.CmpEq, ctyp, ir.Const(tagBKGD))
	b.If("bkgd", isBKGD, func() {
		c16 := b.Alloc(pngColor16)
		idx := b.Load(ir.I8, b.ElemPtr(ir.I8, ir.Global("doc"), dataOff))
		b.Store(ir.I8, idx, b.FieldPtrName(pngColor16, c16, "index"))
		for i, fn := range []string{"red", "green", "blue", "gray"} {
			vv := b.Load(ir.I8, b.ElemPtr(ir.I8, ir.Global("doc"), b.Bin(ir.BinAdd, dataOff, ir.Const(int64(1+i)))))
			b.Store(ir.I16, vv, b.FieldPtrName(pngColor16, c16, fn))
		}
	}, nil)

	// ---- tEXt ---- (CVE-2016-10087 shape: text before IHDR follows a
	// null info pointer; CVE-2011-3048 shape: length-unchecked copy)
	isTEXT := b.Cmp(ir.CmpEq, ctyp, ir.Const(tagTEXT))
	b.If("text", isTEXT, func() {
		info := loadInfo()
		noInfo := b.Cmp(ir.CmpEq, info, ir.Const(0))
		b.If("lateinfo", noInfo, func() {
			// png_set_text_2 null-deref shape: allocate info lazily, then
			// chase its (null) text pointer.
			li := b.Alloc(pngInfo)
			b.Store(ir.I64, li, b.ElemPtr(ir.I64, ir.Global("infoptr"), ir.Const(0)))
			b.Store(ir.I32, ir.Const(1), b.FieldPtrName(pngInfo, li, "num_text"))
			b.Store(ir.Raw, ir.Const(0), b.FieldPtrName(pngInfo, li, "text_ptr"))
			tp := b.Load(ir.Raw, b.FieldPtrName(pngInfo, li, "text_ptr"))
			key := b.Load(ir.I8, b.ElemPtr(ir.I8, ir.Global("doc"), dataOff))
			b.Store(ir.I8, key, tp) // faults: null dereference
		}, nil)
		info2 := loadInfo()
		txt := b.Alloc(pngText)
		key := b.Load(ir.I8, b.ElemPtr(ir.I8, ir.Global("doc"), dataOff))
		b.Store(ir.I64, key, b.FieldPtrName(pngText, txt, "key"))
		b.Store(ir.I64, clen, b.FieldPtrName(pngText, txt, "text_length"))
		b.Store(ir.I32, ir.Const(0), b.FieldPtrName(pngText, txt, "compression"))
		nt := b.Load(ir.I32, b.FieldPtrName(pngInfo, info2, "num_text"))
		b.Store(ir.I32, b.Bin(ir.BinAdd, nt, ir.Const(1)), b.FieldPtrName(pngInfo, info2, "num_text"))
		// Length-unchecked copy into the 512-byte text buffer (bounded
		// only by a far-too-large cap — the 2011-3048 shape).
		capped := b.Mov(clen)
		huge := b.Cmp(ir.CmpGt, clen, ir.Const(2048))
		b.If("textcap", huge, func() {
			b.Memcpy(ir.Global("textbuf"), b.PtrAdd(ir.Global("doc"), dataOff), ir.Const(2048))
		}, func() {
			b.Memcpy(ir.Global("textbuf"), b.PtrAdd(ir.Global("doc"), dataOff), capped)
		})
	}, nil)

	// ---- tIME ---- (CVE-2015-7981 shape: reads 7 bytes regardless of
	// the declared chunk length — an out-of-bounds read for short chunks)
	isTIME := b.Cmp(ir.CmpEq, ctyp, ir.Const(tagTIME))
	b.If("time", isTIME, func() {
		tm := b.Alloc(pngTime)
		yr := b.Bin(ir.BinOr,
			b.Bin(ir.BinShl, b.Bin(ir.BinAnd, b.Load(ir.I8, b.ElemPtr(ir.I8, ir.Global("doc"), dataOff)), ir.Const(0xff)), ir.Const(8)),
			b.Bin(ir.BinAnd, b.Load(ir.I8, b.ElemPtr(ir.I8, ir.Global("doc"), b.Bin(ir.BinAdd, dataOff, ir.Const(1)))), ir.Const(0xff)))
		b.Store(ir.I16, yr, b.FieldPtrName(pngTime, tm, "year"))
		for i, fn := range []string{"month", "day", "hour", "minute", "second"} {
			vv := b.Load(ir.I8, b.ElemPtr(ir.I8, ir.Global("doc"), b.Bin(ir.BinAdd, dataOff, ir.Const(int64(2+i)))))
			b.Store(ir.I8, vv, b.FieldPtrName(pngTime, tm, fn))
		}
	}, nil)

	// ---- IDAT ---- (CVE-2015-0973 shape: row buffer sized by a
	// constant, row copy driven by the attacker-controlled width)
	isIDAT := b.Cmp(ir.CmpEq, ctyp, ir.Const(tagIDAT))
	b.If("idat", isIDAT, func() {
		row := b.AllocN(ir.I8, ir.Const(1024))
		w := b.Load(ir.I32, b.FieldPtrName(pngStruct, png, "width"))
		cappedW := b.Mov(w)
		huge := b.Cmp(ir.CmpGt, w, ir.Const(4096))
		b.If("rowcap", huge, func() {
			b.Memset(row, ir.Const(0xAA), ir.Const(4096)) // heap overflow: 4096 into 1024
		}, func() {
			b.Memset(row, ir.Const(0xAA), cappedW)
		})
		b.Free(row)
	}, nil)

	// ---- unknown chunks ---- (CVE-2013-7353 shape: allocation sized by
	// the unchecked declared length)
	known := b.Local(ir.I64)
	b.Store(ir.I64, ir.Const(0), known)
	for _, t := range []int64{tagIHDR, tagPLTE, tagCHRM, tagBKGD, tagTEXT, tagTIME, tagIDAT, tagIEND} {
		is := b.Cmp(ir.CmpEq, ctyp, ir.Const(t))
		k := b.Load(ir.I64, known)
		b.Store(ir.I64, b.Bin(ir.BinOr, k, is), known)
	}
	unk := b.Cmp(ir.CmpEq, b.Load(ir.I64, known), ir.Const(0))
	b.If("unknown", unk, func() {
		u := b.Alloc(pngUnknown)
		b.Store(ir.I64, ctyp, b.FieldPtrName(pngUnknown, u, "name"))
		b.Store(ir.I64, clen, b.FieldPtrName(pngUnknown, u, "size"))
		b.Store(ir.I8, ir.Const(1), b.FieldPtrName(pngUnknown, u, "location"))
		// png_cache_unknown_chunks integer-overflow shape: the data copy
		// buffer is sized straight from the chunk length.
		data := b.AllocN(ir.I8, clen) // huge length => out-of-memory fault
		b.Store(ir.Raw, data, b.FieldPtrName(pngUnknown, u, "data"))
	}, nil)

	// Advance past data + crc.
	isEND := b.Cmp(ir.CmpEq, ctyp, ir.Const(tagIEND))
	b.If("end", isEND, func() { b.Br("chunk.done") }, nil)
	p3 := b.Load(ir.I64, pos)
	next := b.Bin(ir.BinAdd, p3, b.Bin(ir.BinAdd, clen, ir.Const(12)))
	b.Store(ir.I64, next, pos)
	b.Br("chunk.head")

	b.Block("chunk.done")
	chk := b.Load(ir.I64, b.FieldPtrName(pngStruct, png, "crc"))
	cnt := b.Load(ir.I64, b.FieldPtrName(pngStruct, png, "chunk_count"))
	res := b.Bin(ir.BinXor, chk, b.Bin(ir.BinMul, cnt, ir.Const(0x10001)))
	b.CallVoid("print_i64", res)
	b.Ret(res)
}

// chunk assembles one PNG chunk.
func chunk(typ string, data []byte) []byte {
	out := make([]byte, 0, len(data)+12)
	var lenb [4]byte
	binary.BigEndian.PutUint32(lenb[:], uint32(len(data)))
	out = append(out, lenb[:]...)
	out = append(out, typ...)
	out = append(out, data...)
	out = append(out, 0xDE, 0xAD, 0xBE, 0xEF) // crc placeholder
	return out
}

// rawChunk assembles a chunk with an arbitrary declared length
// (possibly inconsistent with the actual data — how the CVE inputs lie).
func rawChunk(typ string, declaredLen uint32, data []byte) []byte {
	out := make([]byte, 0, len(data)+12)
	var lenb [4]byte
	binary.BigEndian.PutUint32(lenb[:], declaredLen)
	out = append(out, lenb[:]...)
	out = append(out, typ...)
	out = append(out, data...)
	out = append(out, 0xDE, 0xAD, 0xBE, 0xEF)
	return out
}

var pngSig = []byte{137, 'P', 'N', 'G', 13, 10, 26, 10}

func ihdr(w, h uint32, depth, colorType byte) []byte {
	d := make([]byte, 13)
	binary.BigEndian.PutUint32(d[0:], w)
	binary.BigEndian.PutUint32(d[4:], h)
	d[8], d[9] = depth, colorType
	return chunk("IHDR", d)
}

// CanonicalPNG returns the well-formed reference input exercising every
// chunk handler.
func CanonicalPNG() []byte {
	var out []byte
	out = append(out, pngSig...)
	out = append(out, ihdr(64, 48, 8, 3)...)
	chrm := make([]byte, 32)
	for i := 0; i < 8; i++ {
		binary.BigEndian.PutUint32(chrm[i*4:], uint32(31270+i*1000))
	}
	out = append(out, chunk("cHRM", chrm)...)
	out = append(out, chunk("PLTE", []byte{10, 20, 30, 40, 50, 60, 70, 80, 90})...)
	out = append(out, chunk("bKGD", []byte{1, 2, 3, 4, 5})...)
	out = append(out, chunk("tEXt", []byte("Title\x00mini png"))...)
	out = append(out, chunk("tIME", []byte{0x07, 0xE3, 5, 17, 12, 30, 45})...)
	out = append(out, chunk("prIV", []byte{1, 2, 3, 4})...)
	out = append(out, chunk("IDAT", []byte{0, 1, 2, 3, 4, 5, 6, 7})...)
	out = append(out, chunk("IEND", nil)...)
	return out
}

// PNGCase is one Table IV row: a CVE-shaped input and the objects the
// exploit interacts with (which TaintClass must discover).
type PNGCase struct {
	CVE             string
	Description     string
	Input           []byte
	ExpectedObjects []string
	// PaperObjects is the Table IV wording, for the report.
	PaperObjects string
}

// LibPNGCVECases returns the six Table IV case studies.
func LibPNGCVECases() []PNGCase {
	cases := []PNGCase{
		{
			CVE:         "2016-10087",
			Description: "null pointer dereference (text chunk before IHDR)",
			Input: concat(pngSig,
				chunk("tEXt", []byte("Boom\x00payload"))),
			ExpectedObjects: []string{"png_info_def", "png_struct_def"},
			PaperObjects:    "png_{info,struct}_def",
		},
		{
			CVE:         "2015-8126",
			Description: "heap overflow (oversized palette)",
			Input: concat(pngSig,
				ihdr(8, 8, 8, 3),
				chunk("PLTE", bytesN(3*400, 0x55)), // 400 entries > 256
				chunk("IEND", nil)),
			ExpectedObjects: []string{"png_color", "png_info_def", "png_struct_def"},
			PaperObjects:    "png_{info,struct}_def, png_color",
		},
		{
			CVE:         "2015-7981",
			Description: "out of bounds read (short tIME chunk)",
			Input: concat(pngSig,
				rawChunk("tIME", 2, []byte{0x07, 0xE3}),
				chunk("IEND", nil)),
			ExpectedObjects: []string{"png_struct_def", "png_time_struct"},
			PaperObjects:    "png_{struct_def, time_struct}",
		},
		{
			CVE:         "2015-0973",
			Description: "heap overflow (row buffer vs declared width)",
			Input: concat(pngSig,
				ihdr(1<<20, 4, 8, 0), // absurd width drives the row copy
				chunk("IDAT", bytesN(16, 0x00)),
				chunk("IEND", nil)),
			ExpectedObjects: []string{"png_info_def", "png_struct_def"},
			PaperObjects:    "png_{struct_def, byte}",
		},
		{
			CVE:         "2013-7353",
			Description: "integer overflow (unknown chunk length drives allocation)",
			Input: concat(pngSig,
				ihdr(8, 8, 8, 0),
				rawChunk("spAM", 0x7fffffff, bytesN(8, 0x11))),
			ExpectedObjects: []string{"png_info_def", "png_struct_def", "png_unknown_chunk"},
			PaperObjects:    "png_{struct,info}_def, png_unknown_chunk",
		},
		{
			CVE:         "2011-3048",
			Description: "heap overflow (oversized tEXt payload)",
			Input: concat(pngSig,
				ihdr(8, 8, 8, 0),
				chunk("tEXt", bytesN(1500, 'A')),
				chunk("IEND", nil)),
			ExpectedObjects: []string{"png_info_def", "png_struct_def", "png_text"},
			PaperObjects:    "png_{struct,info}_def, png_text",
		},
	}
	return cases
}

func concat(parts ...[]byte) []byte {
	var out []byte
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

func bytesN(n int, v byte) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = v
	}
	return out
}
