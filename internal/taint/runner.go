package taint

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"polar/internal/ir"
	"polar/internal/vm"
)

// RunOptions configures a TaintClass analysis execution.
type RunOptions struct {
	// Fuel bounds each execution (0 = VM default).
	Fuel uint64
	// Args are passed to @main.
	Args []int64
	// IgnoreRunErrors keeps analyzing when an input crashes the program
	// (TaintClass corpora often include crashing inputs — the CVE case
	// studies depend on the taint collected before the crash).
	IgnoreRunErrors bool
}

// AnalyzeOne executes the module once with the given input as a taint
// run and returns the per-run report.
func AnalyzeOne(m *ir.Module, input []byte, opts RunOptions) (*Report, error) {
	p, err := vm.Compile(ir.Clone(m))
	if err != nil {
		return nil, err
	}
	rep := NewReport()
	if err := analyzeInto(p, input, opts, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// Analyze executes the module once per corpus input and returns the
// merged report — the TaintClass object list for the program. The
// module is compiled once; every input runs as a taint run on its own
// instance of that Program, up to runtime.GOMAXPROCS(0) of them at once.
func Analyze(m *ir.Module, corpus [][]byte, opts RunOptions) (*Report, error) {
	return analyze(m, corpus, opts, runtime.GOMAXPROCS(0))
}

// analyze runs the corpus on up to width workers, each entry into a
// report of its own, and merges the reports in corpus order, so the
// result does not depend on width. On failure it returns the error of
// the lowest-index entry that failed. Width 1 runs every entry inline.
func analyze(m *ir.Module, corpus [][]byte, opts RunOptions, width int) (*Report, error) {
	p, err := vm.Compile(ir.Clone(m))
	if err != nil {
		return nil, err
	}
	reps := make([]*Report, len(corpus))
	errs := make([]error, len(corpus))
	var next atomic.Int64
	var failed atomic.Bool
	// Entries are claimed in corpus order and every claimed entry runs,
	// so once one fails, the entries left unclaimed all come after it.
	work := func() {
		for !failed.Load() {
			i := int(next.Add(1) - 1)
			if i >= len(corpus) {
				return
			}
			reps[i] = NewReport()
			if errs[i] = analyzeInto(p, corpus[i], opts, reps[i]); errs[i] != nil {
				failed.Store(true)
			}
		}
	}
	if width = min(width, len(corpus)); width <= 1 {
		work()
	} else {
		var wg sync.WaitGroup
		for w := 0; w < width; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work()
			}()
		}
		wg.Wait()
	}
	rep := NewReport()
	for i, r := range reps {
		if errs[i] != nil {
			return nil, fmt.Errorf("taint: corpus entry %d: %w", i, errs[i])
		}
		rep.Merge(r)
	}
	return rep, nil
}

func analyzeInto(p *vm.Program, input []byte, opts RunOptions, rep *Report) error {
	vmOpts := []vm.Option{vm.WithInput(input), vm.WithTaint(rep)}
	if opts.Fuel > 0 {
		vmOpts = append(vmOpts, vm.WithFuel(opts.Fuel))
	}
	v, err := p.NewInstance(vmOpts...)
	if err != nil {
		return err
	}
	if _, err := v.Run(opts.Args...); err != nil {
		if opts.IgnoreRunErrors || errors.Is(err, vm.ErrFuelExhausted) {
			return nil
		}
		return err
	}
	return nil
}
