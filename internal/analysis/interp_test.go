package analysis

import "testing"

// joinVal must be commutative and idempotent, or the fixpoint's result
// and whether it converges depend on the order in which call sites and
// predecessors are visited.
func TestJoinValCommutativeIdempotent(t *testing.T) {
	set := func(rs ...int) bitset {
		b := newBitset(8)
		for _, r := range rs {
			b.set(r)
		}
		return b
	}
	cases := []struct {
		name string
		a, b absVal
		want absVal
	}{
		{"non-pointers, same offset", absVal{off: 0}, absVal{off: 0}, absVal{off: 0}},
		{"non-pointers, offsets differ", absVal{off: 0}, absVal{off: offUnknown}, absVal{off: offUnknown}},
		{"non-pointers, one tainted", absVal{taint: true, off: 4}, absVal{off: 4}, absVal{taint: true, off: 4}},
		{"pointer and non-pointer", absVal{pts: set(1), off: 8}, absVal{off: 0}, absVal{pts: set(1), off: 8}},
		{"same set, offsets differ", absVal{pts: set(1), off: 0}, absVal{pts: set(1), off: 8}, absVal{pts: set(1), off: offUnknown}},
		{"different sets, same offset", absVal{pts: set(1), off: 8}, absVal{pts: set(2), off: 8}, absVal{pts: set(1, 2), off: 8}},
		{"different sets, offsets differ", absVal{pts: set(1), off: 0}, absVal{taint: true, pts: set(2, 3), off: 8},
			absVal{taint: true, pts: set(1, 2, 3), off: offUnknown}},
	}
	for _, c := range cases {
		if got := joinVal(c.a, c.b); !got.eq(c.want) {
			t.Errorf("%s: join(a, b) = %+v, want %+v", c.name, got, c.want)
		}
		if got := joinVal(c.b, c.a); !got.eq(c.want) {
			t.Errorf("%s: join(b, a) = %+v, want %+v", c.name, got, c.want)
		}
		for _, v := range []absVal{c.a, c.b} {
			if got := joinVal(v, v); !got.eq(v) {
				t.Errorf("%s: join(v, v) = %+v, want v = %+v", c.name, got, v)
			}
		}
	}
}
