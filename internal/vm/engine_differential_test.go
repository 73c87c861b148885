package vm_test

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"polar/internal/core"
	"polar/internal/evalrun"
	"polar/internal/exploit"
	"polar/internal/fuzz"
	"polar/internal/instrument"
	"polar/internal/ir"
	"polar/internal/vm"
	"polar/internal/workload"
)

// The bytecode engine claims bit-identical semantics to the tree-walking
// reference interpreter. These tests hold it to that claim end to end:
// every workload (baseline and hardened), the exploit scenarios, the
// evaluation tables' runs and a fuzzing campaign must produce identical
// results, stats, violation records and coverage on both engines. Each
// comparison stamps one instance per engine from the same Program, with
// the same inputs and runtime configuration.

// engine names one way to run an instance: the bytecode engine
// (VM.Run) or the tree-walking reference (vm.RunReference).
type engine struct {
	name string
	run  func(v *vm.VM, args ...int64) (int64, error)
}

var engines = []engine{
	{"bytecode", (*vm.VM).Run},
	{"reference", vm.RunReference},
}

// outcome is everything a run exposes for the differential: the
// result, the error text, the program output, the VM counters and, on
// hardened runs, the runtime counters and violation records.
type outcome struct {
	Value      int64
	Err        string
	Output     string
	VM         vm.Stats
	Runtime    core.Stats
	Violations []core.ViolationRecord
}

// observe runs v on e and collects its outcome (rt may be nil); the
// run's error is returned as well, for callers that classify it.
func observe(v *vm.VM, rt *core.Runtime, e engine, args ...int64) (outcome, error) {
	val, err := e.run(v, args...)
	o := outcome{Value: val, Output: string(v.Output()), VM: v.Stats}
	if err != nil {
		o.Err = err.Error()
	}
	if rt != nil {
		o.Runtime = rt.Stats()
		o.Violations = rt.ViolationRecords()
	}
	return o, err
}

// hardenedSetup is an instrumented module compiled once; every run
// stamps its own instance and runtime from it.
type hardenedSetup struct {
	prog *vm.Program
	ins  *instrument.Result
}

func harden(t *testing.T, m *ir.Module, targets []string) hardenedSetup {
	t.Helper()
	ins, err := instrument.Apply(ir.Clone(m), targets)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := vm.Compile(ins.Module)
	if err != nil {
		t.Fatal(err)
	}
	return hardenedSetup{prog: prog, ins: ins}
}

// instance stamps one hardened instance with a fresh runtime attached.
func (s hardenedSetup) instance(t *testing.T, cfg core.Config, opts ...vm.Option) (*vm.VM, *core.Runtime) {
	t.Helper()
	v, err := s.prog.NewInstance(opts...)
	if err != nil {
		t.Fatal(err)
	}
	rt := core.New(s.ins.Table, cfg)
	rt.Attach(v)
	return v, rt
}

// compareOutcomes fails the test when the engines disagree.
func compareOutcomes(t *testing.T, what string, got [2]outcome) {
	t.Helper()
	if !reflect.DeepEqual(got[0], got[1]) {
		t.Errorf("%s differs across engines:\nbytecode  %+v\nreference %+v", what, got[0], got[1])
	}
}

func TestEngineDifferentialWorkloads(t *testing.T) {
	for _, w := range workload.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			base, err := vm.Compile(ir.Clone(w.Module))
			if err != nil {
				t.Fatal(err)
			}
			hard := harden(t, w.Module, nil)
			var baseOut, hardOut [2]outcome
			for i, e := range engines {
				v, err := base.NewInstance(vm.WithInput(w.Input))
				if err != nil {
					t.Fatal(err)
				}
				baseOut[i], _ = observe(v, nil, e, w.Args...)
				hv, rt := hard.instance(t, core.DefaultConfig(99), vm.WithInput(w.Input))
				hardOut[i], _ = observe(hv, rt, e, w.Args...)
			}
			if baseOut[0].Err != "" || hardOut[0].Err != "" {
				t.Fatalf("runs failed: baseline %q, hardened %q", baseOut[0].Err, hardOut[0].Err)
			}
			compareOutcomes(t, "baseline run", baseOut)
			compareOutcomes(t, "hardened run", hardOut)
		})
	}
}

// TestEngineDifferentialExploits replays the use-after-free and
// type-confusion scenarios the way exploit.RunUAF and
// exploit.RunTypeConfusion do — 25 trials, undefended and under POLaR
// with the warn policy and per-trial seeds — and compares every trial's
// hijack read, error, violation records and counters across engines.
func TestEngineDifferentialExploits(t *testing.T) {
	const trials, seed = 25, 7
	for _, cs := range exploit.CaseStudies() {
		if cs.Name != "use-after-free" && cs.Name != "type-confusion" {
			continue
		}
		m := cs.Build()
		plain, err := vm.Compile(ir.Clone(m))
		if err != nil {
			t.Fatal(err)
		}
		polar := harden(t, m, []string{"Victim", "Attacker"})
		for trial := int64(0); trial < trials; trial++ {
			var none, hardened [2]outcome
			for i, e := range engines {
				v, err := plain.NewInstance()
				if err != nil {
					t.Fatal(err)
				}
				none[i], _ = observe(v, nil, e, cs.AttackArgs...)
				cfg := core.DefaultConfig(seed + 1000 + trial)
				cfg.Policy = core.PolicyWarn
				hv, rt := polar.instance(t, cfg)
				hardened[i], _ = observe(hv, rt, e, cs.AttackArgs...)
			}
			compareOutcomes(t, cs.Name+"/none", none)
			compareOutcomes(t, cs.Name+"/polar", hardened)
		}
	}
}

// TestEngineDifferentialEvalTables runs what the evaluation tables run
// on both engines: Table III's hardened run of every Figure 6 app under
// its task seed (the counters the table prints come from core.Stats),
// and Table IV's TaintClass run of libpng on each CVE input.
func TestEngineDifferentialEvalTables(t *testing.T) {
	const seed = 5
	for _, w := range workload.SPECFig6() {
		s := harden(t, w.Module, nil)
		var got [2]outcome
		for i, e := range engines {
			v, rt := s.instance(t, core.DefaultConfig(evalrun.TaskSeed(seed, "table3/"+w.Name)), vm.WithInput(w.Input))
			got[i], _ = observe(v, rt, e, w.Args...)
		}
		if got[0].Err != "" {
			t.Fatalf("%s: %s", w.Name, got[0].Err)
		}
		compareOutcomes(t, "Table III run of "+w.Name, got)
	}
	png, err := vm.Compile(ir.Clone(workload.LibPNG().Module))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range workload.LibPNGCVECases() {
		checkTaintParity(t, "CVE-"+c.CVE, png, c.Input, 30_000_000)
	}
}

// TestEngineDifferentialFuzz replays a deterministic campaign with every
// execution run on both engines: the coverage bitmap, error and counters
// of each input must agree, and the campaign the bytecode side drives —
// the same schedule fuzz.Run follows — must reproduce fuzz.Run's corpus,
// crashers and edge count exactly.
func TestEngineDifferentialFuzz(t *testing.T) {
	w := workload.LibPNG()
	cfg := fuzz.DefaultConfig(31)
	cfg.Iterations = 400
	want, err := fuzz.Run(ir.Clone(w.Module), [][]byte{w.Input}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := vm.Compile(ir.Clone(w.Module))
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	seen := make([]byte, 1<<16)
	got := &fuzz.Result{}
	execute := func(input []byte) (newCov, crashed bool) {
		var cov [2][]byte
		var out [2]outcome
		var runErr [2]error
		for i, e := range engines {
			v, err := prog.NewInstance(vm.WithInput(input), vm.WithCoverage(), vm.WithFuel(cfg.Fuel))
			if err != nil {
				t.Fatal(err)
			}
			out[i], runErr[i] = observe(v, nil, e, cfg.Args...)
			cov[i] = v.Coverage()
		}
		if !bytes.Equal(cov[0], cov[1]) {
			t.Fatalf("exec %d: coverage bitmaps differ across engines", got.Execs)
		}
		compareOutcomes(t, "fuzz execution", out)
		got.Execs++
		for i, c := range cov[0] {
			if c != 0 && seen[i] == 0 {
				seen[i] = 1
				newCov = true
				got.Edges++
			}
		}
		return newCov, runErr[0] != nil && !errors.Is(runErr[0], vm.ErrFuelExhausted)
	}

	nc, crashed := execute(w.Input)
	if crashed {
		got.Crashers = append(got.Crashers, w.Input)
	}
	if nc || len(got.Corpus) == 0 {
		got.Corpus = append(got.Corpus, w.Input)
	}
	for it := 0; it < cfg.Iterations; it++ {
		parent := got.Corpus[rng.Intn(len(got.Corpus))]
		var donor []byte
		if len(got.Corpus) > 1 {
			donor = got.Corpus[rng.Intn(len(got.Corpus))]
		}
		cand := fuzz.Mutate(parent, donor, cfg.MaxInputLen, rng)
		nc, crashed := execute(cand)
		if crashed {
			if len(got.Crashers) < 256 {
				got.Crashers = append(got.Crashers, cand)
			}
			continue
		}
		if nc {
			got.Corpus = append(got.Corpus, cand)
		}
	}
	if got.Execs != want.Execs || got.Edges != want.Edges {
		t.Fatalf("campaign shape differs from fuzz.Run: execs %d/%d, edges %d/%d",
			got.Execs, want.Execs, got.Edges, want.Edges)
	}
	if !reflect.DeepEqual(got.Corpus, want.Corpus) || !reflect.DeepEqual(got.Crashers, want.Crashers) {
		t.Fatalf("replayed campaign differs from fuzz.Run: corpus %d/%d, crashers %d/%d",
			len(got.Corpus), len(want.Corpus), len(got.Crashers), len(want.Crashers))
	}
	if len(got.Corpus) < 2 {
		t.Fatalf("campaign degenerate: corpus %d", len(got.Corpus))
	}
}
