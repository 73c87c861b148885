package ir

import (
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
)

// ParseError reports a syntax error with its line number.
type ParseError struct {
	Line int
	Msg  string
	// Err is the sentinel the error wraps (ErrTooManyRegs), or nil.
	Err error
}

// Error implements error.
func (e *ParseError) Error() string { return fmt.Sprintf("ir: line %d: %s", e.Line, e.Msg) }

// Unwrap returns the sentinel the error wraps.
func (e *ParseError) Unwrap() error { return e.Err }

// Parse reads the textual IR form produced by Print. Comments start
// with '#' and run to end of line ('#' cannot appear in any token).
func Parse(src string) (*Module, error) {
	p := &parser{m: NewModule("parsed")}
	lines := strings.Split(src, "\n")
	for i := 0; i < len(lines); i++ {
		line := stripComment(lines[i])
		p.line = i + 1
		t := strings.TrimSpace(line)
		if t == "" {
			continue
		}
		var err error
		switch {
		case strings.HasPrefix(t, "module "):
			err = p.parseModuleHeader(t)
		case strings.HasPrefix(t, "struct "):
			err = p.parseStruct(t)
		case strings.HasPrefix(t, "global "):
			err = p.parseGlobal(t)
		case strings.HasPrefix(t, "func "):
			i, err = p.parseFunc(lines, i)
		default:
			err = p.errf("unexpected top-level line %q", t)
		}
		if err != nil {
			return nil, err
		}
	}
	if err := p.resolveBlockRefs(); err != nil {
		return nil, err
	}
	return p.m, nil
}

type pendingBr struct {
	fn    *Func
	block int
	instr int
	names []string
	line  int
}

type parser struct {
	m       *Module
	line    int
	pending []pendingBr
}

func (p *parser) errf(format string, args ...any) error {
	return &ParseError{Line: p.line, Msg: fmt.Sprintf(format, args...)}
}

// regLimit is the error for register number r at or above MaxRegs,
// which the parser rejects before anything is sized by it.
func (p *parser) regLimit(r int) error {
	return &ParseError{Line: p.line, Msg: fmt.Sprintf("register %%r%d is not below the limit %d", r, MaxRegs), Err: ErrTooManyRegs}
}

func stripComment(s string) string {
	if i := strings.IndexByte(s, '#'); i >= 0 {
		return s[:i]
	}
	return s
}

func (p *parser) parseModuleHeader(t string) error {
	rest := strings.TrimSpace(strings.TrimPrefix(t, "module"))
	name, err := strconv.Unquote(rest)
	if err != nil {
		return p.errf("bad module name %q", rest)
	}
	p.m.Name = name
	return nil
}

// parseStruct handles: struct %Name { i32 a; fptr b; ... }
func (p *parser) parseStruct(t string) error {
	open := strings.Index(t, "{")
	close := strings.LastIndex(t, "}")
	if open < 0 || close < open {
		return p.errf("malformed struct declaration")
	}
	head := strings.Fields(t[:open])
	noRandom := false
	if len(head) == 3 && head[2] == "norandom" {
		noRandom = true
		head = head[:2]
	}
	if len(head) != 2 || !strings.HasPrefix(head[1], "%") {
		return p.errf("malformed struct header %q", t[:open])
	}
	name := head[1][1:]
	var fields []Field
	for _, fd := range strings.Split(t[open+1:close], ";") {
		fd = strings.TrimSpace(fd)
		if fd == "" {
			continue
		}
		sp := strings.LastIndex(fd, " ")
		if sp < 0 {
			return p.errf("malformed field %q in struct %s", fd, name)
		}
		ft, err := p.parseType(strings.TrimSpace(fd[:sp]))
		if err != nil {
			return err
		}
		fields = append(fields, Field{Name: strings.TrimSpace(fd[sp+1:]), Type: ft})
	}
	st := NewStruct(name, fields...)
	st.NoRandom = noRandom
	return p.m.AddStruct(st)
}

// parseGlobal handles: global @name SIZE [= hexbytes]
func (p *parser) parseGlobal(t string) error {
	f := strings.Fields(t)
	if len(f) < 3 || !strings.HasPrefix(f[1], "@") {
		return p.errf("malformed global %q", t)
	}
	size, err := strconv.Atoi(f[2])
	if err != nil {
		return p.errf("bad global size %q", f[2])
	}
	var init []byte
	if len(f) == 5 && f[3] == "=" {
		init, err = hex.DecodeString(f[4])
		if err != nil {
			return p.errf("bad global init hex: %v", err)
		}
	} else if len(f) != 3 {
		return p.errf("malformed global %q", t)
	}
	_, err = p.m.AddGlobal(f[1][1:], size, init)
	return err
}

// parseType parses a type token: i8/i16/i32/i64, f64, fptr, ptr, void,
// %Struct, T* and [N x T].
func (p *parser) parseType(s string) (Type, error) {
	s = strings.TrimSpace(s)
	if strings.HasSuffix(s, "*") {
		elem, err := p.parseType(s[:len(s)-1])
		if err != nil {
			return nil, err
		}
		return PtrTo(elem), nil
	}
	switch s {
	case "void":
		return Void, nil
	case "i8":
		return I8, nil
	case "i16":
		return I16, nil
	case "i32":
		return I32, nil
	case "i64":
		return I64, nil
	case "f64":
		return F64, nil
	case "fptr":
		return Fptr, nil
	case "ptr":
		return Raw, nil
	}
	if strings.HasPrefix(s, "%") {
		st, ok := p.m.Structs[s[1:]]
		if !ok {
			return nil, p.errf("unknown struct type %s", s)
		}
		return st, nil
	}
	if strings.HasPrefix(s, "[") && strings.HasSuffix(s, "]") {
		inner := s[1 : len(s)-1]
		xi := strings.Index(inner, " x ")
		if xi < 0 {
			return nil, p.errf("malformed array type %q", s)
		}
		n, err := strconv.Atoi(strings.TrimSpace(inner[:xi]))
		if err != nil {
			return nil, p.errf("bad array length in %q", s)
		}
		elem, err := p.parseType(inner[xi+3:])
		if err != nil {
			return nil, err
		}
		return ArrayOf(elem, n), nil
	}
	return nil, p.errf("unknown type %q", s)
}

// parseFunc consumes lines[start..] until the closing '}' and returns
// the index of the last consumed line.
func (p *parser) parseFunc(lines []string, start int) (int, error) {
	header := strings.TrimSpace(stripComment(lines[start]))
	f, err := p.parseFuncHeader(header)
	if err != nil {
		return start, err
	}
	var cur *Block
	maxReg := len(f.Params) - 1
	for i := start + 1; i < len(lines); i++ {
		p.line = i + 1
		t := strings.TrimSpace(stripComment(lines[i]))
		switch {
		case t == "":
			continue
		case t == "}":
			f.NumRegs = maxReg + 1
			p.m.Funcs = append(p.m.Funcs, f)
			return i, nil
		case strings.HasSuffix(t, ":") && !strings.Contains(t, " "):
			name := strings.TrimSuffix(t, ":")
			cur = &Block{Name: name}
			f.Blocks = append(f.Blocks, cur)
		default:
			if cur == nil {
				return i, p.errf("instruction before first block label")
			}
			in, names, err := p.parseInstr(t)
			if err != nil {
				return i, err
			}
			if in.Dest > maxReg {
				maxReg = in.Dest
			}
			for _, a := range in.Args {
				if a.Kind == ValReg && a.Reg > maxReg {
					maxReg = a.Reg
				}
			}
			cur.Instrs = append(cur.Instrs, in)
			if len(names) > 0 {
				p.pending = append(p.pending, pendingBr{
					fn: f, block: len(f.Blocks) - 1,
					instr: len(cur.Instrs) - 1, names: names, line: p.line,
				})
			}
		}
	}
	return len(lines), p.errf("unterminated function @%s", f.Name)
}

func (p *parser) parseFuncHeader(t string) (*Func, error) {
	// func @name(type pname, ...) rettype {
	if !strings.HasSuffix(t, "{") {
		return nil, p.errf("function header must end with '{'")
	}
	t = strings.TrimSpace(strings.TrimSuffix(t, "{"))
	open := strings.Index(t, "(")
	close := strings.LastIndex(t, ")")
	if open < 0 || close < open {
		return nil, p.errf("malformed function header")
	}
	name := strings.TrimSpace(strings.TrimPrefix(t[:open], "func"))
	if !strings.HasPrefix(name, "@") {
		return nil, p.errf("function name must start with @")
	}
	ret, err := p.parseType(strings.TrimSpace(t[close+1:]))
	if err != nil {
		return nil, err
	}
	f := &Func{Name: name[1:], Ret: ret}
	params := strings.TrimSpace(t[open+1 : close])
	if params != "" {
		for _, ps := range strings.Split(params, ",") {
			ps = strings.TrimSpace(ps)
			sp := strings.LastIndex(ps, " ")
			if sp < 0 {
				return nil, p.errf("malformed parameter %q", ps)
			}
			pt, err := p.parseType(ps[:sp])
			if err != nil {
				return nil, err
			}
			f.Params = append(f.Params, Param{Name: ps[sp+1:], Type: pt})
		}
	}
	return f, nil
}

// parseVal parses an operand token.
func (p *parser) parseVal(s string) (Value, error) {
	s = strings.TrimSpace(s)
	switch {
	case s == "":
		return Value{}, p.errf("empty operand")
	case strings.HasPrefix(s, "%r"):
		r, err := strconv.Atoi(s[2:])
		if err != nil {
			return Value{}, p.errf("bad register %q", s)
		}
		if r >= MaxRegs {
			return Value{}, p.regLimit(r)
		}
		return Reg(r), nil
	case strings.HasPrefix(s, "@"):
		return Global(s[1:]), nil
	case strings.HasPrefix(s, "&"):
		return FuncRef(s[1:]), nil
	case strings.ContainsAny(s, ".eE") && !strings.HasPrefix(s, "0x"):
		fv, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return Value{}, p.errf("bad float %q", s)
		}
		return ConstF(fv), nil
	default:
		iv, err := strconv.ParseInt(s, 0, 64)
		if err != nil {
			return Value{}, p.errf("bad integer %q", s)
		}
		return Const(iv), nil
	}
}

func splitOperands(s string) []string {
	var out []string
	depth := 0
	start := 0
	for i, r := range s {
		switch r {
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case ',':
			if depth == 0 {
				out = append(out, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	if t := strings.TrimSpace(s[start:]); t != "" {
		out = append(out, t)
	}
	return out
}

var binOps = map[string]BinKind{
	"add": BinAdd, "sub": BinSub, "mul": BinMul, "div": BinDiv, "rem": BinRem,
	"and": BinAnd, "or": BinOr, "xor": BinXor, "shl": BinShl, "shr": BinShr,
}

var cmpOps = map[string]CmpKind{
	"eq": CmpEq, "ne": CmpNe, "lt": CmpLt, "le": CmpLe, "gt": CmpGt, "ge": CmpGe,
}

// parseInstr parses one instruction line. It returns unresolved
// successor block names (for br/condbr) to be fixed up later.
func (p *parser) parseInstr(t string) (Instr, []string, error) {
	in := Instr{Dest: -1}
	if strings.HasPrefix(t, "%r") {
		eq := strings.Index(t, "=")
		if eq < 0 {
			return in, nil, p.errf("register without assignment in %q", t)
		}
		d, err := strconv.Atoi(strings.TrimSpace(t[2:eq]))
		if err != nil {
			return in, nil, p.errf("bad destination in %q", t)
		}
		if d >= MaxRegs {
			return in, nil, p.regLimit(d)
		}
		in.Dest = d
		t = strings.TrimSpace(t[eq+1:])
	}
	sp := strings.IndexAny(t, " (")
	op := t
	rest := ""
	if sp >= 0 {
		op = t[:sp]
		rest = strings.TrimSpace(t[sp:])
	}
	ops := splitOperands(rest)

	vals := func(from int) ([]Value, error) {
		var vs []Value
		for _, o := range ops[from:] {
			v, err := p.parseVal(o)
			if err != nil {
				return nil, err
			}
			vs = append(vs, v)
		}
		return vs, nil
	}

	switch op {
	case "alloc", "local":
		if len(ops) < 1 {
			return in, nil, p.errf("%s needs a type", op)
		}
		ty, err := p.parseType(ops[0])
		if err != nil {
			return in, nil, err
		}
		in.Op = OpAlloc
		if op == "local" {
			in.Op = OpLocal
		}
		in.Type = ty
		if st, ok := ty.(*StructType); ok {
			in.Struct = st
		}
		args, err := vals(1)
		if err != nil {
			return in, nil, err
		}
		in.Args = args
		return in, nil, nil
	case "free":
		in.Op = OpFree
		args, err := vals(0)
		if err != nil {
			return in, nil, err
		}
		if len(args) != 1 {
			return in, nil, p.errf("free needs one pointer")
		}
		in.Args = args
		return in, nil, nil
	case "load":
		if len(ops) != 2 {
			return in, nil, p.errf("load needs type, ptr")
		}
		ty, err := p.parseType(ops[0])
		if err != nil {
			return in, nil, err
		}
		pv, err := p.parseVal(ops[1])
		if err != nil {
			return in, nil, err
		}
		in.Op, in.Type, in.Args = OpLoad, ty, []Value{pv}
		return in, nil, nil
	case "store":
		// store TYPE VAL, PTR — first operand group is "TYPE VAL".
		if len(ops) != 2 {
			return in, nil, p.errf("store needs 'type val, ptr'")
		}
		tsp := strings.LastIndex(ops[0], " ")
		if tsp < 0 {
			return in, nil, p.errf("store needs 'type val, ptr'")
		}
		ty, err := p.parseType(ops[0][:tsp])
		if err != nil {
			return in, nil, err
		}
		v, err := p.parseVal(ops[0][tsp+1:])
		if err != nil {
			return in, nil, err
		}
		pv, err := p.parseVal(ops[1])
		if err != nil {
			return in, nil, err
		}
		in.Op, in.Type, in.Args = OpStore, ty, []Value{v, pv}
		return in, nil, nil
	case "memcpy", "memset":
		in.Op = OpMemcpy
		if op == "memset" {
			in.Op = OpMemset
		}
		args, err := vals(0)
		if err != nil {
			return in, nil, err
		}
		if len(args) != 3 {
			return in, nil, p.errf("%s needs three operands", op)
		}
		in.Args = args
		return in, nil, nil
	case "fieldptr":
		if len(ops) != 3 || !strings.HasPrefix(ops[0], "%") {
			return in, nil, p.errf("fieldptr needs %%Struct, ptr, index")
		}
		st, ok := p.m.Structs[ops[0][1:]]
		if !ok {
			return in, nil, p.errf("unknown struct %s", ops[0])
		}
		pv, err := p.parseVal(ops[1])
		if err != nil {
			return in, nil, err
		}
		idx, err := strconv.Atoi(ops[2])
		if err != nil || idx < 0 || idx >= len(st.Fields) {
			return in, nil, p.errf("bad field index %q for %s", ops[2], st.Name)
		}
		in.Op, in.Struct, in.Field, in.Args = OpFieldPtr, st, idx, []Value{pv}
		return in, nil, nil
	case "elemptr":
		if len(ops) != 3 {
			return in, nil, p.errf("elemptr needs type, ptr, index")
		}
		ty, err := p.parseType(ops[0])
		if err != nil {
			return in, nil, err
		}
		args, err := vals(1)
		if err != nil {
			return in, nil, err
		}
		in.Op, in.Type, in.Args = OpElemPtr, ty, args
		return in, nil, nil
	case "ptradd":
		args, err := vals(0)
		if err != nil {
			return in, nil, err
		}
		if len(args) != 2 {
			return in, nil, p.errf("ptradd needs ptr, bytes")
		}
		in.Op, in.Args = OpPtrAdd, args
		return in, nil, nil
	case "itof", "ftoi", "mov":
		args, err := vals(0)
		if err != nil {
			return in, nil, err
		}
		if len(args) != 1 {
			return in, nil, p.errf("%s needs one operand", op)
		}
		switch op {
		case "itof":
			in.Op = OpItoF
		case "ftoi":
			in.Op = OpFtoI
		default:
			in.Op = OpMov
		}
		in.Args = args
		return in, nil, nil
	case "br":
		if len(ops) != 1 {
			return in, nil, p.errf("br needs a block name")
		}
		in.Op = OpBr
		in.Blocks = []int{-1}
		return in, []string{ops[0]}, nil
	case "condbr":
		if len(ops) != 3 {
			return in, nil, p.errf("condbr needs cond, true, false")
		}
		cv, err := p.parseVal(ops[0])
		if err != nil {
			return in, nil, err
		}
		in.Op, in.Args, in.Blocks = OpCondBr, []Value{cv}, []int{-1, -1}
		return in, []string{ops[1], ops[2]}, nil
	case "call":
		open := strings.Index(rest, "(")
		close := strings.LastIndex(rest, ")")
		if open < 0 || close < open || !strings.HasPrefix(rest, "@") {
			return in, nil, p.errf("malformed call %q", rest)
		}
		in.Op = OpCall
		in.Callee = rest[1:open]
		for _, a := range splitOperands(rest[open+1 : close]) {
			v, err := p.parseVal(a)
			if err != nil {
				return in, nil, err
			}
			in.Args = append(in.Args, v)
		}
		return in, nil, nil
	case "ret":
		in.Op = OpRet
		if rest != "" {
			v, err := p.parseVal(rest)
			if err != nil {
				return in, nil, err
			}
			in.Args = []Value{v}
		}
		return in, nil, nil
	}
	if bk, ok := binOps[op]; ok {
		args, err := vals(0)
		if err != nil {
			return in, nil, err
		}
		if len(args) != 2 {
			return in, nil, p.errf("%s needs two operands", op)
		}
		in.Op, in.Bin, in.Args = OpBin, bk, args
		return in, nil, nil
	}
	if ck, ok := cmpOps[op]; ok {
		args, err := vals(0)
		if err != nil {
			return in, nil, err
		}
		if len(args) != 2 {
			return in, nil, p.errf("%s needs two operands", op)
		}
		in.Op, in.Cmp, in.Args = OpCmp, ck, args
		return in, nil, nil
	}
	if strings.HasPrefix(op, "f") {
		if bk, ok := binOps[op[1:]]; ok {
			args, err := vals(0)
			if err != nil {
				return in, nil, err
			}
			if len(args) != 2 {
				return in, nil, p.errf("%s needs two operands", op)
			}
			in.Op, in.Bin, in.Args = OpFBin, bk, args
			return in, nil, nil
		}
		if ck, ok := cmpOps[op[1:]]; ok {
			args, err := vals(0)
			if err != nil {
				return in, nil, err
			}
			if len(args) != 2 {
				return in, nil, p.errf("%s needs two operands", op)
			}
			in.Op, in.Cmp, in.Args = OpFCmp, ck, args
			return in, nil, nil
		}
	}
	return in, nil, p.errf("unknown opcode %q", op)
}

func (p *parser) resolveBlockRefs() error {
	for _, pb := range p.pending {
		in := &pb.fn.Blocks[pb.block].Instrs[pb.instr]
		for i, name := range pb.names {
			bi := pb.fn.BlockIndex(name)
			if bi < 0 {
				return &ParseError{Line: pb.line, Msg: fmt.Sprintf("unknown block %q in @%s", name, pb.fn.Name)}
			}
			in.Blocks[i] = bi
		}
	}
	p.pending = nil
	return nil
}
