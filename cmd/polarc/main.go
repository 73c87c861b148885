// Command polarc is the POLaR "compiler driver": it reads a textual IR
// module, applies the POLaR instrumentation pass (and the CIE), and
// writes the hardened module back out.
//
// Usage:
//
//	polarc [-targets a,b,c] [-o out.ir] program.ir
//
// With no -targets flag every class is hardened (the paper's §V.A
// compatibility configuration). The rewritten module embeds its class
// table, so polarun can execute it directly.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"polar"
	"polar/internal/analysis"
)

func main() {
	targets := flag.String("targets", "", "comma-separated class names to randomize (default: all)")
	policyPath := flag.String("policy", "", "randomization policy file from taintclass -o")
	out := flag.String("o", "", "output file (default: stdout)")
	stats := flag.Bool("stats", false, "print rewrite statistics to stderr")
	lint := flag.Bool("lint", false, "run the static analysis passes before instrumenting; abort on error-severity findings")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: polarc [-lint] [-targets a,b,c | -policy p.json] [-o out.ir] program.ir")
		os.Exit(2)
	}
	if err := run(flag.Arg(0), *targets, *policyPath, *out, *stats, *lint); err != nil {
		fmt.Fprintln(os.Stderr, "polarc:", err)
		os.Exit(1)
	}
}

func run(path, targets, policyPath, out string, stats, lint bool) error {
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	m, err := polar.Parse(string(src))
	if err != nil {
		return err
	}
	if lint {
		// The passes assume a well-formed module, as the VM does.
		if err := polar.Validate(m); err != nil {
			return err
		}
		// Analyze the module while it is still uninstrumented — after the
		// layout pass the fieldptr idioms the rules look for are gone.
		res := analysis.Analyze(m, analysis.Options{Lint: true, UAF: true})
		if len(res.Findings) > 0 {
			fmt.Fprint(os.Stderr, res.Findings.Render())
		}
		if n := res.Findings.CountAtLeast(analysis.SevError); n > 0 {
			return fmt.Errorf("lint: %d error-severity finding(s); not instrumenting", n)
		}
	}
	var h *polar.Hardened
	switch {
	case policyPath != "":
		if targets != "" {
			return fmt.Errorf("-targets and -policy are mutually exclusive")
		}
		pol, err := polar.LoadPolicy(policyPath)
		if err != nil {
			return err
		}
		if h, err = polar.HardenWithPolicy(m, pol); err != nil {
			return err
		}
	default:
		var tlist []string
		if targets != "" {
			tlist = strings.Split(targets, ",")
		}
		if h, err = polar.Harden(m, tlist); err != nil {
			return err
		}
	}
	if stats {
		fmt.Fprintf(os.Stderr,
			"rewrote %d allocs, %d member accesses, %d frees, %d copies; %d raw accesses left alone\n",
			h.RewrittenAllocs, h.RewrittenAccesses, h.RewrittenFrees, h.RewrittenCopies,
			h.SkippedRawAccesses)
	}
	text := polar.Format(h.Module)
	if out == "" {
		fmt.Print(text)
		return nil
	}
	return os.WriteFile(out, []byte(text), 0o644)
}
