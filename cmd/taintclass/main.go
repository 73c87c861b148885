// Command taintclass runs the TaintClass framework (§IV.B) over a
// program: optional coverage-guided fuzzing to widen input coverage,
// then DFSan-analogue taint analysis, printing the object report that
// feeds POLaR's target selection.
//
// Usage:
//
//	taintclass [-fuzz n] [-seed n] [-workload name | program.ir] [inputs...]
//
// Either give a built-in workload name (e.g. 400.perlbench,
// libpng-1.6.34 — see -list) or an IR file plus seed-input files.
package main

import (
	"flag"
	"fmt"
	"os"

	"polar"
	"polar/internal/fuzz"
	"polar/internal/workload"
)

func main() {
	fuzzIters := flag.Int("fuzz", 0, "coverage-guided fuzzing iterations before analysis")
	seed := flag.Int64("seed", 1, "fuzzing seed")
	wl := flag.String("workload", "", "analyze a built-in workload by name")
	list := flag.Bool("list", false, "list built-in workload names")
	out := flag.String("o", "", "write a randomization policy file (JSON) for polarc -policy")
	flag.Parse()

	if *list {
		for _, w := range workload.All() {
			fmt.Printf("%-22s %s\n", w.Name, w.Description)
		}
		return
	}
	if err := run(*wl, *fuzzIters, *seed, *out); err != nil {
		fmt.Fprintln(os.Stderr, "taintclass:", err)
		os.Exit(1)
	}
}

func run(wl string, fuzzIters int, seed int64, out string) error {
	var m *polar.Module
	var seeds [][]byte
	switch {
	case wl != "":
		w, err := workload.ByName(wl)
		if err != nil {
			return err
		}
		m = w.Module
		seeds = [][]byte{w.Input}
	case flag.NArg() >= 1:
		src, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			return err
		}
		if m, err = polar.Parse(string(src)); err != nil {
			return err
		}
		for _, p := range flag.Args()[1:] {
			b, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			seeds = append(seeds, b)
		}
		if len(seeds) == 0 {
			seeds = [][]byte{nil}
		}
	default:
		return fmt.Errorf("give -workload NAME or an IR file (see -list)")
	}

	corpus := seeds
	if fuzzIters > 0 {
		fr, err := polar.FuzzForCoverage(m, seeds, fuzzIters, seed)
		if err != nil {
			return err
		}
		fmt.Printf("fuzzing: %d execs, %d edges, corpus %d, crashers %d\n",
			fr.Execs, fr.Edges, len(fr.Corpus), len(fr.Crashers))
		corpus = fuzz.TaintInputs(seeds, fr.Corpus, fr.Crashers)
	}
	rep, err := polar.AnalyzeTaint(m, corpus)
	if err != nil {
		return err
	}
	classes := rep.TaintedClasses()
	fmt.Printf("%d tainted object types:\n", len(classes))
	fmt.Print(rep.String())
	if out != "" {
		pol := polar.PolicyFromTaint(rep, fmt.Sprintf("taintclass -fuzz %d -seed %d", fuzzIters, seed))
		if err := pol.Save(out); err != nil {
			return err
		}
		fmt.Printf("policy written to %s (%d targets)\n", out, len(pol.Targets))
	}
	return nil
}
