package fuzz

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"polar/internal/ir"
	"polar/internal/telemetry"
	"polar/internal/vm"
	"polar/internal/workload"
)

// runSequential is the campaign loop as it ran on one goroutine: draw a
// candidate from the corpus, execute it, fold its coverage in, commit,
// draw the next. It is test-only. The production Run keeps several
// candidates in flight and commits them in campaign order; the oracle
// tests below demand that it return exactly what this loop returns and
// emit exactly the events and counters this loop emits.
func runSequential(m *ir.Module, seeds [][]byte, cfg Config) (*Result, error) {
	if cfg.Iterations <= 0 {
		cfg.Iterations = 1000
	}
	if cfg.MaxInputLen <= 0 {
		cfg.MaxInputLen = 4096
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	res := &Result{}
	seen := make([]byte, 1<<16)

	// One compiled Program per campaign; every execution is a fresh
	// instance of it.
	prog, err := vm.Compile(m)
	if err != nil {
		return nil, fmt.Errorf("fuzz: seed execution: %w", err)
	}
	execute := func(input []byte) (newCov bool, crashed bool, err error) {
		opts := []vm.Option{vm.WithInput(input), vm.WithCoverage()}
		if cfg.Fuel > 0 {
			opts = append(opts, vm.WithFuel(cfg.Fuel))
		}
		v, err := prog.NewInstance(opts...)
		if err != nil {
			return false, false, err
		}
		_, runErr := v.Run(cfg.Args...)
		res.Execs++
		cov := v.Coverage()
		for i, c := range cov {
			if c != 0 && seen[i] == 0 {
				seen[i] = 1
				newCov = true
				res.Edges++
			}
		}
		if runErr != nil && !errors.Is(runErr, vm.ErrFuelExhausted) {
			return newCov, true, nil
		}
		return newCov, false, nil
	}

	if len(seeds) == 0 {
		seeds = [][]byte{{}}
	}
	for _, s := range seeds {
		nc, crashed, err := execute(s)
		if err != nil {
			return nil, fmt.Errorf("fuzz: seed execution: %w", err)
		}
		if crashed {
			res.Crashers = append(res.Crashers, append([]byte(nil), s...))
		}
		if nc || len(res.Corpus) == 0 {
			res.Corpus = append(res.Corpus, append([]byte(nil), s...))
			if cfg.Telemetry != nil {
				cfg.Telemetry.Emit(telemetry.Event{Kind: telemetry.EvCorpusAdd, Size: len(s), Detail: "seed"})
			}
		}
	}

	for it := 0; it < cfg.Iterations; it++ {
		parent := res.Corpus[rng.Intn(len(res.Corpus))]
		var donor []byte
		if len(res.Corpus) > 1 {
			donor = res.Corpus[rng.Intn(len(res.Corpus))]
		}
		cand := Mutate(parent, donor, cfg.MaxInputLen, rng)
		nc, crashed, err := execute(cand)
		if err != nil {
			return nil, fmt.Errorf("fuzz: iteration %d: %w", it, err)
		}
		if crashed {
			if len(res.Crashers) < 256 {
				res.Crashers = append(res.Crashers, cand)
			}
			continue
		}
		if nc {
			res.Corpus = append(res.Corpus, cand)
			if cfg.Telemetry != nil {
				cfg.Telemetry.Emit(telemetry.Event{Kind: telemetry.EvCorpusAdd, Size: len(cand), Detail: "mutant"})
			}
		}
	}
	if cfg.Telemetry != nil {
		reg := cfg.Telemetry.Registry
		reg.Counter("fuzz.execs").Set(uint64(res.Execs))
		reg.Counter("fuzz.corpus").Set(uint64(len(res.Corpus)))
		reg.Counter("fuzz.crashers").Set(uint64(len(res.Crashers)))
		reg.Counter("fuzz.edges").Set(uint64(res.Edges))
	}
	return res, nil
}

// eventLog is a telemetry sink that keeps every event in arrival order.
type eventLog struct {
	mu  sync.Mutex
	evs []telemetry.Event
}

func (l *eventLog) Event(e telemetry.Event) {
	l.mu.Lock()
	l.evs = append(l.evs, e)
	l.mu.Unlock()
}

// observed is what a campaign produced: its Result, the events it
// emitted and the registry it left behind.
type observed struct {
	res    *Result
	events []telemetry.Event
	snap   telemetry.Snapshot
}

func observe(t *testing.T, campaign func(*ir.Module, [][]byte, Config) (*Result, error), m *ir.Module, seeds [][]byte, cfg Config) observed {
	t.Helper()
	tel := telemetry.New()
	log := &eventLog{}
	tel.Bus.Attach(log)
	cfg.Telemetry = tel
	res, err := campaign(m, seeds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return observed{res: res, events: log.evs, snap: tel.Registry.Snapshot()}
}

// buildBranchy returns a program whose blocks depend on the low three
// bits of each of its first 16 input bytes, so nearly every mutation of
// an early corpus entry reaches a block no earlier input reached and
// joins the corpus. A 0xFF in byte 2 faults on the null page, so campaigns find
// crashers too.
func buildBranchy() *ir.Module {
	m := ir.NewModule("branchy")
	b := ir.NewFunc(m, "main", ir.I64)
	acc := b.Local(ir.I64)
	b.Store(ir.I64, ir.Const(0), acc)
	for k := 0; k < 16; k++ {
		v := b.Call("input_byte", ir.Const(int64(k)))
		if k == 2 {
			boom := b.Cmp(ir.CmpEq, v, ir.Const(0xFF))
			b.If("boom", boom, func() { b.Load(ir.I64, ir.Const(8)) }, nil)
		}
		lo := b.Bin(ir.BinAnd, v, ir.Const(7))
		for c := int64(0); c < 7; c++ {
			hit := b.Cmp(ir.CmpEq, lo, ir.Const(c))
			b.If(fmt.Sprintf("b%d.%d", k, c), hit, func() {
				b.Store(ir.I64, b.Bin(ir.BinAdd, b.Load(ir.I64, acc), ir.Const(c+1)), acc)
			}, nil)
		}
	}
	b.Ret(b.Load(ir.I64, acc))
	return m
}

// oracleCase is a campaign the oracle tests run both ways.
type oracleCase struct {
	name  string
	m     *ir.Module
	seeds [][]byte
	cfg   Config
}

// matchesSequential runs c at every width from 1 to 4 and requires the
// Result, the corpus-add events and the fuzz.* counters the sequential
// loop produces, draw for draw. It returns how many mutants the
// campaign replayed, which must not depend on width either.
func matchesSequential(t *testing.T, c oracleCase) (replays int) {
	t.Helper()
	want := observe(t, runSequential, c.m, c.seeds, c.cfg)
	t.Logf("execs %d, edges %d, corpus %d, crashers %d",
		want.res.Execs, want.res.Edges, len(want.res.Corpus), len(want.res.Crashers))
	if c.name == "branchy" && len(want.res.Corpus) <= 20 {
		t.Fatalf("corpus grew to %d entries; the test needs more than 20", len(want.res.Corpus))
	}
	for width := 1; width <= 4; width++ {
		var n int
		got := observe(t, func(m *ir.Module, seeds [][]byte, cfg Config) (*Result, error) {
			cp := newCampaign(cfg, width)
			res, err := cp.run(m, seeds)
			n = cp.replays
			return res, err
		}, c.m, c.seeds, c.cfg)
		if !reflect.DeepEqual(got.res, want.res) {
			t.Fatalf("width %d: result differs from the sequential campaign: execs %d/%d, edges %d/%d, corpus %d/%d, crashers %d/%d",
				width, got.res.Execs, want.res.Execs, got.res.Edges, want.res.Edges,
				len(got.res.Corpus), len(want.res.Corpus), len(got.res.Crashers), len(want.res.Crashers))
		}
		if !reflect.DeepEqual(got.events, want.events) {
			t.Fatalf("width %d: events differ from the sequential campaign:\n got %v\nwant %v", width, got.events, want.events)
		}
		if !reflect.DeepEqual(got.snap, want.snap) {
			t.Fatalf("width %d: registry differs from the sequential campaign:\n got %v\nwant %v", width, got.snap.Counters, want.snap.Counters)
		}
		if width > 1 && n != replays {
			t.Fatalf("width %d replayed %d mutants, width 1 replayed %d", width, n, replays)
		}
		replays = n
	}
	t.Logf("replayed %d of %d mutants", replays, c.cfg.Iterations)
	return replays
}

// TestCampaignMatchesSequential is the oracle for the campaign loop: at
// every width from 1 to 4, the campaign must return the Result, emit
// the corpus-add events and set the fuzz.* counters that the sequential
// loop does, draw for draw.
func TestCampaignMatchesSequential(t *testing.T) {
	cases := []oracleCase{
		{"branchy", buildBranchy(), [][]byte{[]byte("seed-input-bytes")}, Config{Iterations: 300, MaxInputLen: 24, Seed: 5}},
		{"branchy-seeds", buildBranchy(), [][]byte{{}, []byte("ab"), {0xFF, 0xFF, 0xFF}, []byte("ab")}, Config{Iterations: 100, MaxInputLen: 24, Seed: 11}},
	}
	for _, w := range []*workload.Workload{workload.LibPNG(), workload.LibJPEG(), workload.ChakraModel()} {
		cases = append(cases, oracleCase{w.Name, w.Module, [][]byte{w.Input}, Config{
			Iterations: 60, MaxInputLen: len(w.Input), Seed: 7919, Fuel: 30_000_000, Args: w.Args,
		}})
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			matchesSequential(t, c)
		})
	}
}

// buildCrashOnFirstByte returns a program that reads byte 0 of its
// input and faults on the null page when it is 'X'. A seed "X..."
// crashes, so mutants that keep byte 0 replay as crashers.
func buildCrashOnFirstByte() *ir.Module {
	m := ir.NewModule("crash-first-byte")
	b := ir.NewFunc(m, "main", ir.I64)
	v := b.Call("input_byte", ir.Const(0))
	boom := b.Cmp(ir.CmpEq, v, ir.Const('X'))
	b.If("boom", boom, func() { b.Load(ir.I64, ir.Const(8)) }, nil)
	b.Ret(v)
	return m
}

// TestCampaignReplaysMatchSequential holds the campaigns whose mutants
// the campaign replays instead of executing to the same oracle: the
// three pipeline apps that read only a prefix of their input, which
// replay at least 9 of their 10 mutants, and a crashing seed, whose
// replays must commit as crashers. It is kept apart from
// TestCampaignMatchesSequential because the sequential loop executes
// every one of the apps' mutants, which is slow under the race
// detector.
func TestCampaignReplaysMatchSequential(t *testing.T) {
	type tc struct {
		oracleCase
		min int // fewest replays the case must see
	}
	cases := []tc{{oracleCase{"crash-first-byte", buildCrashOnFirstByte(), [][]byte{[]byte("X-longer-seed-input")},
		Config{Iterations: 40, MaxInputLen: 24, Seed: 3}}, 1}}
	// The apps at the settings of perfbench's pipeline workload.
	for _, w := range []*workload.Workload{workload.Perlbench(), workload.Sjeng(), workload.H264ref()} {
		cases = append(cases, tc{oracleCase{w.Name, w.Module, [][]byte{w.Input}, Config{
			Iterations: 10, MaxInputLen: len(w.Input), Seed: 1, Fuel: 30_000_000, Args: w.Args,
		}}, 9})
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			if n := matchesSequential(t, c.oracleCase); n < c.min {
				t.Fatalf("replayed %d of %d mutants, want at least %d", n, c.cfg.Iterations, c.min)
			}
		})
	}
}
