// Package fuzz implements the coverage-guided input generation module
// TaintClass borrows from libFuzzer (§IV.B.2).
//
// The paper uses "only the coverage-guiding module" of libFuzzer to
// drive DFSan's input-case generation toward code (and therefore
// object) coverage that a single canonical input would miss. This
// package is that module: a deterministic mutation engine over a corpus,
// keeping inputs that light up new edges in the VM's edge-coverage
// bitmap.
package fuzz

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"polar/internal/ir"
	"polar/internal/telemetry"
	"polar/internal/vm"
)

// Config controls a fuzzing campaign.
type Config struct {
	// Iterations is the number of executions (the time budget analogue;
	// the paper fuzzed "several hours", we fuzz thousands of execs).
	Iterations int
	// MaxInputLen bounds generated inputs.
	MaxInputLen int
	// Seed makes the campaign deterministic.
	Seed int64
	// Fuel bounds each execution (0 = VM default).
	Fuel uint64
	// Args are passed to @main on every execution.
	Args []int64
	// Telemetry, when non-nil, receives an EvCorpusAdd event per
	// coverage-increasing input and campaign counters (fuzz.execs,
	// fuzz.crashers, fuzz.edges) in its registry.
	Telemetry *telemetry.Telemetry
}

// DefaultConfig returns a small deterministic campaign.
func DefaultConfig(seed int64) Config {
	return Config{Iterations: 2000, MaxInputLen: 4096, Seed: seed, Fuel: 50_000_000}
}

// Result is the campaign outcome.
type Result struct {
	// Corpus holds every input that contributed new coverage. The first
	// seed is always its first entry, even when it adds no edge or
	// crashes, so mutation has a parent to start from.
	Corpus [][]byte
	// Crashers holds inputs whose execution returned an error — memory
	// faults, aborts — kept separately (useful corpus for the CVE case
	// studies).
	Crashers [][]byte
	// Execs is the number of inputs the campaign evaluated, replayed
	// ones included (see run).
	Execs int
	// Edges is the number of distinct coverage-bitmap slots ever hit.
	Edges int
}

// Run executes a campaign against the module's @main. It keeps up to
// runtime.GOMAXPROCS(0) executions in flight and returns what executing
// them one at a time returns; see run.
func Run(m *ir.Module, seeds [][]byte, cfg Config) (*Result, error) {
	return newCampaign(cfg, runtime.GOMAXPROCS(0)).run(m, seeds)
}

// run is the campaign with up to width executions in flight. Inputs are
// drawn in campaign order on the calling goroutine: the seeds, then one
// mutant per iteration, each from the corpus as committed so far.
// Executions run concurrently, each on its own instance of the one
// compiled Program, and are committed in campaign order on the calling
// goroutine: coverage into seen, then Execs, Edges, crashers, corpus and
// events. A mutant depends on earlier executions only through the
// corpus, so while nothing joins the corpus the mutants in flight are
// the ones a one-at-a-time campaign would have drawn. When a committed
// mutant does join, the executions behind it were drawn from the old
// corpus: they are dropped and the generator is rewound to its state
// right after that mutant's draw. The result, the events and the
// counters therefore do not depend on width. Width 1 runs every
// execution inline.
//
// A mutant that agrees with its parent on everything the parent's run
// observed of its input (vm.InputUse.Replays) is not executed: its run
// would repeat the parent's, so it is committed with the parent's
// outcome. Its edges are the parent's, already seen, and it crashes
// only if the parent did, which only a seed can have done. It takes no
// place among the width executions. Seeds always execute.
func (c *campaign) run(m *ir.Module, seeds [][]byte) (*Result, error) {
	// One compiled Program per campaign; every execution is a fresh
	// instance of it.
	prog, err := vm.Compile(m)
	if err != nil {
		return nil, fmt.Errorf("fuzz: seed execution: %w", err)
	}
	c.prog = prog
	if len(seeds) == 0 {
		seeds = [][]byte{{}}
	}
	c.rewind(0)
	defer c.wg.Wait()

	cfg := c.cfg
	res := &Result{}
	// ran holds, beside res.Corpus, what each entry's run observed.
	var ran []outcome
	seen := make([]byte, 1<<16)
	var inflight []*execution
	running := 0 // executions in inflight, replays not counted
	total := len(seeds) + cfg.Iterations
	next := 0 // campaign index of the next input to start
	for idx := 0; idx < total; idx++ {
		// A mutant is drawn only once every seed has committed, from the
		// corpus as committed so far. A replay at the head of the queue
		// commits before anything more is drawn, so replays, which take
		// no place among the width, do not pile up ahead of it.
		for running < c.width && next < total && (next < len(seeds) || idx >= len(seeds)) &&
			(len(inflight) == 0 || !inflight[0].replayed) {
			var e *execution
			if next < len(seeds) {
				e = c.start(seeds[next], 0)
			} else {
				in, draws, p := c.draw(res.Corpus)
				if ran[p].use.Replays(res.Corpus[p], in) {
					e = &execution{input: in, draws: draws, replayed: true, crashed: ran[p].crashed}
				} else {
					e = c.start(in, draws)
				}
			}
			if !e.replayed {
				running++
			}
			inflight = append(inflight, e)
			next++
		}
		e := inflight[0]
		inflight = inflight[1:]
		if e.replayed {
			c.replays++
		} else {
			running--
		}
		if e.done != nil {
			<-e.done
		}
		if e.err != nil {
			if idx < len(seeds) {
				return nil, fmt.Errorf("fuzz: seed execution: %w", e.err)
			}
			return nil, fmt.Errorf("fuzz: iteration %d: %w", idx-len(seeds), e.err)
		}
		res.Execs++
		nc := false
		for i, x := range e.cov {
			if x != 0 && seen[i] == 0 {
				seen[i] = 1
				nc = true
				res.Edges++
			}
		}
		if idx < len(seeds) {
			// Seeds are the caller's slices: keep copies.
			if e.crashed {
				res.Crashers = append(res.Crashers, append([]byte(nil), e.input...))
			}
			if nc || len(res.Corpus) == 0 {
				res.Corpus = append(res.Corpus, append([]byte(nil), e.input...))
				ran = append(ran, outcome{e.use, e.crashed})
				if cfg.Telemetry != nil {
					cfg.Telemetry.Emit(telemetry.Event{Kind: telemetry.EvCorpusAdd, Size: len(e.input), Detail: "seed"})
				}
			}
			continue
		}
		if e.crashed {
			if len(res.Crashers) < 256 {
				res.Crashers = append(res.Crashers, e.input)
			}
			continue
		}
		if nc {
			res.Corpus = append(res.Corpus, e.input)
			ran = append(ran, outcome{e.use, false})
			if cfg.Telemetry != nil {
				cfg.Telemetry.Emit(telemetry.Event{Kind: telemetry.EvCorpusAdd, Size: len(e.input), Detail: "mutant"})
			}
			// Every execution still in flight was drawn without this
			// entry in the corpus: drop it and draw again from here.
			inflight, running = nil, 0
			c.rewind(e.draws)
			next = idx + 1
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

// TaintInputs returns the inputs TaintClass analyzes after a campaign
// run from seeds: the seeds, then the campaign's corpus entries and
// crashers that are not byte-identical to an earlier input. The corpus
// always starts with the first seed, and a crashing seed is also a
// crasher, so concatenating the three lists would analyze those inputs
// twice.
func TaintInputs(seeds, corpus, crashers [][]byte) [][]byte {
	out := append([][]byte(nil), seeds...)
	have := make(map[string]bool, len(seeds)+len(corpus)+len(crashers))
	for _, s := range seeds {
		have[string(s)] = true
	}
	for _, list := range [][][]byte{corpus, crashers} {
		for _, in := range list {
			if !have[string(in)] {
				have[string(in)] = true
				out = append(out, in)
			}
		}
	}
	return out
}

// campaign holds what a campaign's executions share and its generator.
type campaign struct {
	prog  *vm.Program
	cfg   Config
	width int
	// slots bounds the executions running at once, dropped ones
	// included, to width; wg waits for all of them.
	slots chan struct{}
	wg    sync.WaitGroup

	src *countedSource
	rng *rand.Rand

	// replays counts the committed mutants that were replayed instead
	// of executed.
	replays int
}

// newCampaign returns a campaign over cfg, with its defaults filled in,
// that keeps up to width executions in flight.
func newCampaign(cfg Config, width int) *campaign {
	if cfg.Iterations <= 0 {
		cfg.Iterations = 1000
	}
	if cfg.MaxInputLen <= 0 {
		cfg.MaxInputLen = 4096
	}
	return &campaign{cfg: cfg, width: width, slots: make(chan struct{}, width)}
}

// outcome is what a corpus entry's run observed of its input and
// whether it crashed: the outcome of every mutant its record replays.
type outcome struct {
	use     vm.InputUse
	crashed bool
}

// countedSource counts the values drawn from the campaign's generator,
// so the campaign can rewind it by replaying that many from the seed.
type countedSource struct {
	rand.Source
	draws uint64
}

func (s *countedSource) Int63() int64 {
	s.draws++
	return s.Source.Int63()
}

// rewind puts the generator in the state it had after draws values.
func (c *campaign) rewind(draws uint64) {
	c.src = &countedSource{Source: rand.NewSource(c.cfg.Seed)}
	for c.src.draws < draws {
		c.src.Int63()
	}
	c.rng = rand.New(c.src)
}

// draw derives the next mutant from the corpus and returns it with the
// number of generator values drawn so far and its parent's index.
func (c *campaign) draw(corpus [][]byte) ([]byte, uint64, int) {
	p := c.rng.Intn(len(corpus))
	var donor []byte
	if len(corpus) > 1 {
		donor = corpus[c.rng.Intn(len(corpus))]
	}
	return Mutate(corpus[p], donor, c.cfg.MaxInputLen, c.rng), c.src.draws, p
}

// execution is one input's run. Its fields other than input, draws and
// replayed are valid once done is closed; done is nil for an inline run
// and for a replay, which has no coverage of its own.
type execution struct {
	input    []byte
	draws    uint64 // generator values drawn up to and including this input
	replayed bool
	done     chan struct{}

	cov     []byte
	use     vm.InputUse
	crashed bool
	err     error
}

// start executes input, inline at width 1 and on a goroutine of its own
// otherwise, once fewer than width executions are running.
func (c *campaign) start(input []byte, draws uint64) *execution {
	e := &execution{input: input, draws: draws}
	if c.width <= 1 {
		c.execute(e)
		return e
	}
	e.done = make(chan struct{})
	c.slots <- struct{}{}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		c.execute(e)
		<-c.slots
		close(e.done)
	}()
	return e
}

// execute runs e.input on a fresh instance and records its coverage,
// what it observed of its input and whether it crashed. Fuel exhaustion
// is not a crash.
func (c *campaign) execute(e *execution) {
	opts := []vm.Option{vm.WithInput(e.input), vm.WithCoverage()}
	if c.cfg.Fuel > 0 {
		opts = append(opts, vm.WithFuel(c.cfg.Fuel))
	}
	v, err := c.prog.NewInstance(opts...)
	if err != nil {
		e.err = err
		return
	}
	_, runErr := v.Run(c.cfg.Args...)
	e.cov = v.Coverage()
	e.use = v.InputUse()
	e.crashed = runErr != nil && !errors.Is(runErr, vm.ErrFuelExhausted)
}

// interesting values mirror libFuzzer's table.
var interesting = []int64{0, 1, -1, 16, 32, 64, 100, 127, -128, 255, 256, 512, 1000, 1024, 4096, 32767, -32768, 65535, 65536, 1 << 24, 1 << 31}

// Mutate derives a new input from parent (and optionally donor for
// splices). Exported so property tests can drive it directly.
func Mutate(parent, donor []byte, maxLen int, rng *rand.Rand) []byte {
	out := append([]byte(nil), parent...)
	// Havoc: apply 1..4 stacked mutations.
	for n := 1 + rng.Intn(4); n > 0; n-- {
		switch rng.Intn(8) {
		case 0: // bit flip
			if len(out) > 0 {
				i := rng.Intn(len(out))
				out[i] ^= 1 << uint(rng.Intn(8))
			}
		case 1: // random byte
			if len(out) > 0 {
				out[rng.Intn(len(out))] = byte(rng.Intn(256))
			}
		case 2: // insert random byte
			if len(out) < maxLen {
				i := rng.Intn(len(out) + 1)
				out = append(out[:i], append([]byte{byte(rng.Intn(256))}, out[i:]...)...)
			}
		case 3: // delete byte
			if len(out) > 0 {
				i := rng.Intn(len(out))
				out = append(out[:i], out[i+1:]...)
			}
		case 4: // interesting 8/16/32-bit value
			if len(out) > 0 {
				v := interesting[rng.Intn(len(interesting))]
				width := 1 << uint(rng.Intn(3)) // 1, 2 or 4 bytes
				i := rng.Intn(len(out))
				for b := 0; b < width && i+b < len(out); b++ {
					out[i+b] = byte(v >> (8 * b))
				}
			}
		case 5: // duplicate a block
			if len(out) > 0 && len(out) < maxLen {
				start := rng.Intn(len(out))
				l := 1 + rng.Intn(minInt(16, len(out)-start))
				blk := append([]byte(nil), out[start:start+l]...)
				i := rng.Intn(len(out) + 1)
				out = append(out[:i], append(blk, out[i:]...)...)
			}
		case 6: // splice with donor
			if len(donor) > 0 {
				i := rng.Intn(len(donor))
				l := 1 + rng.Intn(minInt(32, len(donor)-i))
				if len(out) == 0 {
					out = append(out, donor[i:i+l]...)
				} else {
					j := rng.Intn(len(out))
					out = append(out[:j], append(append([]byte(nil), donor[i:i+l]...), out[j:]...)...)
				}
			}
		case 7: // extend with zeros (length probing)
			if len(out) < maxLen {
				grow := 1 + rng.Intn(16)
				if len(out)+grow > maxLen {
					grow = maxLen - len(out)
				}
				out = append(out, make([]byte, grow)...)
			}
		}
	}
	if len(out) > maxLen {
		out = out[:maxLen]
	}
	return out
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
