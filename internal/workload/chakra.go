package workload

import "polar/internal/ir"

// chakraTaintedNames is the 42-class inventory Table I reports for
// ChakraCore 1.10 (named samples from the paper plus representative
// engine types; '::' becomes '_').
func chakraTaintedNames() []string {
	return []string{
		"Js_HashedCharacterBuffer", "Js_OpLayoutT_Reg1", "JsUtil_CharacterBuffer",
		"Js_FunctionBody", "Js_JavascriptFunction", "Js_DynamicObject",
		"Js_DynamicTypeHandler", "Js_PathTypeHandler", "Js_SimpleDictionaryTypeHandler",
		"Js_JavascriptArray", "Js_JavascriptNativeIntArray", "Js_JavascriptNativeFloatArray",
		"Js_SparseArraySegment", "Js_JavascriptString", "Js_ConcatString",
		"Js_CompoundString", "Js_PropertyRecord", "Js_PropertyString",
		"Js_RecyclableObject", "Js_Type", "Js_DynamicType", "Js_ScriptContext",
		"Js_ByteCodeReader", "Js_ByteCodeWriter", "Js_OpLayoutT_Reg2",
		"Js_OpLayoutT_Reg3", "Js_OpLayoutCallI", "Js_OpLayoutElementI",
		"Js_InterpreterStackFrame", "Js_JavascriptNumber", "Js_TaggedInt",
		"Js_FrameDisplay", "Js_ScopeObject", "Js_ActivationObject", "Js_Arguments",
		"Js_FunctionInfo", "Js_ParseableFunctionInfo", "Js_DeferDeserializeFunctionInfo",
		"JsUtil_GrowingArray", "JsUtil_List", "JsUtil_BaseDictionary", "Memory_Recycler",
	}
}

// ChakraModel builds the ChakraCore stand-in used for the Table I row:
// a script-runtime object model whose "script loading" phase populates
// the engine types from untrusted script bytes, followed by a bytecode
// dispatch loop over interpreter frame objects. The per-benchmark JS
// kernels of Fig. 7 / Table II live in jsbench.go and share this object
// model's allocation style.
func ChakraModel() *Workload {
	a := newApp("chakracore-1.10", chakraTaintedNames(),
		[]string{"ThreadContext_cfg", "JITManager_cfg", "Output_cfg"})
	m := a.m
	fnBody := a.tainted[3]  // Js_FunctionBody
	frame := a.tainted[28]  // Js_InterpreterStackFrame
	reader := a.tainted[22] // Js_ByteCodeReader
	if _, err := m.AddGlobal("bytecode", 2048, nil); err != nil {
		panic(err)
	}

	b := ir.NewFunc(m, "compute", ir.I64)
	n := readInputTo(b, "bytecode")
	fb := a.loadObj(b, 3)
	fr := a.loadObj(b, 28)
	rd := a.loadObj(b, 22)
	fdB := firstDataField(fnBody)
	fdF := firstDataField(frame)
	fdR := firstDataField(reader)
	b.Store(storeTypeFor(fnBody, fdB), ir.Const(0), b.FieldPtr(fnBody, fb, fdB))
	b.Store(storeTypeFor(frame, fdF), ir.Const(0), b.FieldPtr(frame, fr, fdF))
	b.Store(storeTypeFor(reader, fdR), ir.Const(0), b.FieldPtr(reader, rd, fdR))
	// Dispatch loop: 3 passes over the bytecode, updating the reader
	// cursor and the frame accumulator per opcode.
	b.CountedLoop("pass", ir.Const(3), func(pass ir.Value) {
		b.CountedLoop("dispatch", n, func(i ir.Value) {
			op := b.Load(ir.I8, b.ElemPtr(ir.I8, ir.Global("bytecode"), i))
			cur := b.Load(storeTypeFor(reader, fdR), b.FieldPtr(reader, rd, fdR))
			b.Store(storeTypeFor(reader, fdR), b.Bin(ir.BinAdd, cur, ir.Const(1)), b.FieldPtr(reader, rd, fdR))
			acc := b.Load(storeTypeFor(frame, fdF), b.FieldPtr(frame, fr, fdF))
			b.Store(storeTypeFor(frame, fdF), b.Bin(ir.BinXor, b.Bin(ir.BinShl, acc, ir.Const(1)), op), b.FieldPtr(frame, fr, fdF))
		})
	})
	f := emitFiller(b, "jit", 100_000)
	res := b.Load(storeTypeFor(frame, fdF), b.FieldPtr(frame, fr, fdF))
	b.Ret(b.Bin(ir.BinXor, res, f))

	return a.finish(
		"script-engine object model: loader-populated engine types + dispatch loop",
		defaultInput(1200, 43), 42)
}
