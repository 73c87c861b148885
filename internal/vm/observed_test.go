package vm

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"polar/internal/ir"
	"polar/internal/telemetry/profile"
)

// RecordingHooks logs every Hooks call with its arguments, one line per
// call, so two runs can be compared call for call. Exported for the
// external differential tests.
type RecordingHooks struct {
	Log []string
}

func (h *RecordingHooks) add(format string, args ...any) {
	h.Log = append(h.Log, fmt.Sprintf(format, args...))
}

func (h *RecordingHooks) Enter(fn *ir.Func, args []ir.Value) { h.add("enter @%s %v", fn.Name, args) }
func (h *RecordingHooks) Exit(retArg *ir.Value, callerDest int) {
	if retArg == nil {
		h.add("exit void %d", callerDest)
		return
	}
	h.add("exit %v %d", *retArg, callerDest)
}
func (h *RecordingHooks) Load(dest int, addr uint64, size int) {
	h.add("load %d %#x %d", dest, addr, size)
}
func (h *RecordingHooks) Store(src *ir.Value, addr uint64, size int) {
	h.add("store %v %#x %d", *src, addr, size)
}
func (h *RecordingHooks) Bin(dest int, a, b *ir.Value)       { h.add("bin %d %v %v", dest, *a, *b) }
func (h *RecordingHooks) Un(dest int, a *ir.Value)           { h.add("un %d %v", dest, *a) }
func (h *RecordingHooks) PtrDerive(dest int, base *ir.Value) { h.add("ptr %d %v", dest, *base) }
func (h *RecordingHooks) Memcpy(dst, src uint64, n int)      { h.add("memcpy %#x %#x %d", dst, src, n) }
func (h *RecordingHooks) Memset(dst uint64, n int)           { h.add("memset %#x %d", dst, n) }
func (h *RecordingHooks) CondBr(cond *ir.Value)              { h.add("condbr %v", *cond) }
func (h *RecordingHooks) Alloc(dest int, addr uint64, size int, st *ir.StructType) {
	name := "<raw>"
	if st != nil {
		name = st.Name
	}
	h.add("alloc %d %#x %d %s", dest, addr, size, name)
}
func (h *RecordingHooks) Free(addr uint64) { h.add("free %#x", addr) }
func (h *RecordingHooks) Builtin(name string, args []ir.Value, argVals []int64, ret int64, dest int) {
	h.add("builtin %s %v %v %d %d", name, args, argVals, ret, dest)
}

// observedOutcome is everything an observed run exposes: result, error
// text, Stats, the Hooks log, the instruction log and the per-site
// profile.
type observedOutcome struct {
	ret     int64
	err     string
	stats   Stats
	hooks   []string
	trace   string
	profile []profile.SiteSample
}

// runObserved runs m on e with a recording hook and/or the instruction
// log attached, under the site profiler.
func runObserved(t *testing.T, m *ir.Module, e engine, hooked, traced bool, opts []Option, args ...int64) observedOutcome {
	t.Helper()
	h := &RecordingHooks{}
	var tr strings.Builder
	prof := profile.NewSiteProfiler()
	opts = append(opts, WithProfiler(prof))
	if hooked {
		opts = append(opts, WithHooks(h))
	}
	if traced {
		opts = append(opts, WithTrace(&tr, 0))
	}
	v, ret, err := runEngine(t, m, e, opts, args...)
	if cycles, _, _ := prof.Totals(); cycles != v.Stats.Instructions {
		t.Fatalf("%s: profiled cycles %d != executed instructions %d", e, cycles, v.Stats.Instructions)
	}
	out := observedOutcome{ret: ret, stats: v.Stats, hooks: h.Log, trace: tr.String(), profile: prof.Snapshot()}
	if err != nil {
		out.err = err.Error()
	}
	return out
}

// TestObservedRunsMatchReference: on the all-opcode program and on every
// fault class, an observed bytecode run makes exactly the reference
// tree-walker's Hooks calls with the same arguments in the same order,
// writes the same instruction log, charges the same per-site profile,
// and ends with the same result, error and Stats — hooked, traced, and
// both at once.
func TestObservedRunsMatchReference(t *testing.T) {
	mods := faultModules()
	mods["rich"] = richModule(t)
	for name, m := range mods {
		for _, mode := range []struct{ hooked, traced bool }{{true, false}, {false, true}, {true, true}} {
			opts := []Option{WithInput([]byte{9, 8, 7})}
			bc := runObserved(t, m, bytecode, mode.hooked, mode.traced, opts, 5)
			ref := runObserved(t, m, reference, mode.hooked, mode.traced, opts, 5)
			if !reflect.DeepEqual(bc, ref) {
				t.Fatalf("%s (hooked=%v traced=%v): observed run differs from the reference:\nbytecode  %+v\nreference %+v",
					name, mode.hooked, mode.traced, bc, ref)
			}
			if mode.hooked && len(bc.hooks) == 0 {
				t.Fatalf("%s: no Hooks calls recorded", name)
			}
			if mode.traced && bc.trace == "" {
				t.Fatalf("%s: empty instruction log", name)
			}
		}
	}
}

// TestObservedFuelSweep holds the Hooks log to the reference at every
// fuel value of the all-opcode program: exhaustion must cut both
// engines' observer streams after the same call.
func TestObservedFuelSweep(t *testing.T) {
	m := richModule(t)
	full := runObserved(t, m, reference, true, false, nil, 5)
	if full.err != "" {
		t.Fatal(full.err)
	}
	for fuel := uint64(0); fuel <= full.stats.Instructions+1; fuel++ {
		opts := []Option{WithFuel(fuel), WithInput([]byte{9, 8, 7})}
		bc := runObserved(t, m, bytecode, true, false, opts, 5)
		ref := runObserved(t, m, reference, true, false, opts, 5)
		if !reflect.DeepEqual(bc, ref) {
			t.Fatalf("fuel=%d: observed run differs from the reference:\nbytecode  %+v\nreference %+v", fuel, bc, ref)
		}
	}
}

// TestObservedLoweringUnfused: the lowering observed runs execute has
// one instruction per source instruction, each pointing back at its
// source, and no superinstructions.
func TestObservedLoweringUnfused(t *testing.T) {
	p, err := Compile(richModule(t))
	if err != nil {
		t.Fatal(err)
	}
	for fi, bf := range p.observedFuncs() {
		fn := p.mod.Funcs[fi]
		if bf.fn != fn {
			t.Fatalf("observed lowering out of order at %d", fi)
		}
		for bi, blk := range fn.Blocks {
			bb := bf.blocks[bi]
			if int(bb.cost) != len(blk.Instrs) {
				t.Fatalf("@%s.%s: cost %d for %d instructions", fn.Name, blk.Name, bb.cost, len(blk.Instrs))
			}
			for ii := range blk.Instrs {
				in := &bf.code[int(bb.start)+ii]
				if in.irIn != &blk.Instrs[ii] {
					t.Fatalf("@%s.%s#%d: lowered instruction does not point at its source", fn.Name, blk.Name, ii)
				}
				if in.weight() != 1 || in.op >= bcFieldLoad {
					t.Fatalf("@%s.%s#%d: superinstruction %d in the unfused lowering", fn.Name, blk.Name, ii, in.op)
				}
			}
		}
	}
}

// TestObservedFormBuiltOnce: eight goroutines stamp hooked and traced
// instances from one Program at once (run under -race). Every instance
// must share the one unfused lowering and match the reference result.
func TestObservedFormBuiltOnce(t *testing.T) {
	const workers = 8
	p, err := Compile(richModule(t))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := p.NewInstance(WithInput([]byte{9, 8, 7}))
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunReference(ref, 5)
	if err != nil {
		t.Fatal(err)
	}
	start := make(chan struct{})
	forms := make([]*bcFunc, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			opt := WithHooks(&RecordingHooks{})
			if i%2 == 1 {
				opt = WithTrace(&strings.Builder{}, 0)
			}
			v, err := p.NewInstance(opt, WithInput([]byte{9, 8, 7}))
			if err != nil {
				errs[i] = err
				return
			}
			forms[i] = v.obsFuncs[0]
			if got, err := v.Run(5); err != nil || got != want {
				errs[i] = fmt.Errorf("worker %d: got %d, %v; want %d", i, got, err, want)
			}
		}()
	}
	close(start)
	wg.Wait()
	for i := range errs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if forms[i] != p.observed[0] {
			t.Fatalf("worker %d ran a different unfused lowering", i)
		}
	}
}
