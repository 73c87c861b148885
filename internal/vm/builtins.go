package vm

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"slices"
)

// ErrOutputLimit is returned by a print builtin that would grow the
// output log past maxOutput bytes.
var ErrOutputLimit = errors.New("vm: output log limit exceeded")

// maxOutput bounds the output log, so a hostile print_str length fails
// typed instead of asking Go for that much memory.
const maxOutput = 16 << 20

// growOutput extends the output log by n bytes and returns them for the
// caller to fill.
func (v *VM) growOutput(n int) ([]byte, error) {
	l := len(v.output)
	if n > maxOutput-l {
		return nil, fmt.Errorf("%w: %d bytes after %d", ErrOutputLimit, n, l)
	}
	v.output = slices.Grow(v.output, n)[:l+n]
	return v.output[l:], nil
}

// printLine appends s to the output log.
func printLine(c *Call, s string) (int64, error) {
	b, err := c.VM.growOutput(len(s))
	if err != nil {
		return 0, err
	}
	copy(b, s)
	return 0, nil
}

// InputUse is what one run observed of its input: the input_* builtins,
// the only code that reads the input, update it with every answer they
// give. Prefix is the end of the highest in-range byte an input_byte or
// input_read answer covered. Len says whether an answer depended on the
// input's length: input_len, input_byte at or past the end, and an
// input_read that starts at or past the end or is clipped at it. A
// negative offset, or an input_read of n <= 0 bytes, gets the same
// answer for every input and marks nothing.
type InputUse struct {
	Prefix int
	Len    bool
}

// Replays reports whether every input query of the run on ran that
// recorded u gets the same answer on cand. Every builtin is
// deterministic, so a run of the same program, with the same options
// and arguments, on such a cand executes exactly as the one on ran did:
// same return value, error, output, Stats and coverage.
func (u InputUse) Replays(ran, cand []byte) bool {
	return (!u.Len || len(cand) == len(ran)) && len(cand) >= u.Prefix && bytes.Equal(cand[:u.Prefix], ran[:u.Prefix])
}

// read records an answer that covered the input up to end.
func (u *InputUse) read(end int) {
	if end > u.Prefix {
		u.Prefix = end
	}
}

// registerDefaultBuiltins installs the core intrinsics every program can
// use:
//
//	input_len() -> i64                      length of untrusted input
//	input_read(dst, off, n) -> i64          copy input[off:off+n] to dst, returns copied
//	input_byte(off) -> i64                  one input byte (or -1 past end)
//	print_i64(v), print_f64(v)              append to the output log
//	print_str(ptr, n)                       append raw bytes to the output log
//	rt_rand(seed_slot_ptr) -> i64           xorshift PRNG stepping the seed in memory
//	rt_abort(code)                          terminate with an error
//	rt_sqrt(f) -> f64, rt_sin(f), rt_cos(f) float helpers (bit-cast args)
//
// The input_* family models the instrumented fread/MapViewOfFile entry
// points that TaintClass treats as taint sources (§IV.B.1). The print
// builtins fail with ErrOutputLimit rather than grow the output log past
// maxOutput bytes.
func registerDefaultBuiltins(v *VM) {
	v.RegisterBuiltin("input_len", func(c *Call) (int64, error) {
		c.VM.inputUse.Len = true
		return int64(len(c.VM.input)), nil
	})
	v.RegisterBuiltin("input_read", func(c *Call) (int64, error) {
		dst := uint64(c.Arg(0))
		off := int(c.Arg(1))
		n := int(c.Arg(2))
		in, use := c.VM.input, &c.VM.inputUse
		if off < 0 || n <= 0 {
			return 0, nil
		}
		if off >= len(in) {
			use.Len = true
			return 0, nil
		}
		// Clip against what is left, not off+n > len(in): off+n
		// overflows for n near MaxInt64.
		if n > len(in)-off {
			n = len(in) - off
			use.Len = true
		}
		use.read(off + n)
		if err := c.VM.Mem.WriteBytes(dst, in[off:off+n]); err != nil {
			return 0, err
		}
		return int64(n), nil
	})
	v.RegisterBuiltin("input_byte", func(c *Call) (int64, error) {
		off := int(c.Arg(0))
		in, use := c.VM.input, &c.VM.inputUse
		if off < 0 {
			return -1, nil
		}
		if off >= len(in) {
			use.Len = true
			return -1, nil
		}
		use.read(off + 1)
		return int64(in[off]), nil
	})
	v.RegisterBuiltin("print_i64", func(c *Call) (int64, error) {
		return printLine(c, fmt.Sprintf("%d\n", c.Arg(0)))
	})
	v.RegisterBuiltin("print_f64", func(c *Call) (int64, error) {
		return printLine(c, fmt.Sprintf("%g\n", math.Float64frombits(uint64(c.Arg(0)))))
	})
	v.RegisterBuiltin("print_str", func(c *Call) (int64, error) {
		addr, n := uint64(c.Arg(0)), int(c.Arg(1))
		if n < 0 {
			return 0, lengthError(n)
		}
		if err := c.VM.Mem.check(addr, n); err != nil {
			return 0, err
		}
		// Read straight from simulated memory into the log: the length
		// is checked against the limit before anything is allocated.
		b, err := c.VM.growOutput(n)
		if err != nil {
			return 0, err
		}
		c.VM.Mem.readInto(b, addr)
		return 0, nil
	})
	v.RegisterBuiltin("rt_rand", func(c *Call) (int64, error) {
		slot := uint64(c.Arg(0))
		s, err := c.VM.Mem.ReadU(slot, 8)
		if err != nil {
			return 0, err
		}
		if s == 0 {
			s = 0x9e3779b97f4a7c15
		}
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		if err := c.VM.Mem.WriteU(slot, 8, s); err != nil {
			return 0, err
		}
		return int64(s >> 1), nil
	})
	v.RegisterBuiltin("rt_abort", func(c *Call) (int64, error) {
		return 0, fmt.Errorf("vm: program abort(%d)", c.Arg(0))
	})
	v.RegisterBuiltin("rt_sqrt", func(c *Call) (int64, error) {
		f := math.Float64frombits(uint64(c.Arg(0)))
		return int64(math.Float64bits(math.Sqrt(f))), nil
	})
	v.RegisterBuiltin("rt_sin", func(c *Call) (int64, error) {
		f := math.Float64frombits(uint64(c.Arg(0)))
		return int64(math.Float64bits(math.Sin(f))), nil
	})
	v.RegisterBuiltin("rt_cos", func(c *Call) (int64, error) {
		f := math.Float64frombits(uint64(c.Arg(0)))
		return int64(math.Float64bits(math.Cos(f))), nil
	})
}
