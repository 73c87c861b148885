// Command polarlint runs the static analysis passes over textual IR
// modules: the layout-compatibility lint (§VI.B idioms that break
// under per-allocation randomization), the definite use-after-free /
// double-free detector, and the static TaintClass pass.
//
// Usage:
//
//	polarlint [flags] program.ir [more.ir ...]
//
//	-json          machine-readable findings on stdout
//	-fail-on SEV   exit 1 if any finding is at or above SEV
//	               (info|warning|error|none; default error)
//	-taint         print the ranked static TaintClass table
//	-policy FILE   write a randomization policy derived from the
//	               static taint pass (single input only)
//	-context K     call-string depth for heap cloning (default 2;
//	               0 disables context sensitivity entirely)
//	-facts FILE    write the olr_getptr site classification (the
//	               SiteFacts artifact; single input only)
//	-suggest       propose norandom tags for untainted wire-format
//	               classes
//	-taint-report FILE  dynamic-campaign policy file (taintclass -o);
//	               its targets additionally veto -suggest proposals
//	-metrics       print per-pass timing and finding counts to stderr
//
// Exit status: 0 clean (below the gate), 1 findings at/above -fail-on,
// 2 usage, parse or validation errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"polar"
	"polar/internal/analysis"
	"polar/internal/ir"
	"polar/internal/policy"
	"polar/internal/telemetry"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as JSON")
	failOn := flag.String("fail-on", "error", "minimum severity that fails the run (info|warning|error|none)")
	taintOut := flag.Bool("taint", false, "print the ranked static TaintClass table")
	policyOut := flag.String("policy", "", "write a policy file derived from the static taint pass")
	contextK := flag.Int("context", 2, "call-string depth for heap cloning (0 = context-insensitive)")
	factsOut := flag.String("facts", "", "write the SiteFacts artifact (the olr_getptr site classification)")
	suggest := flag.Bool("suggest", false, "propose norandom tags for untainted wire-format classes")
	taintReport := flag.String("taint-report", "", "dynamic-campaign policy file whose targets veto -suggest")
	metricsOut := flag.Bool("metrics", false, "print per-pass metrics to stderr")
	flag.Parse()
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: polarlint [-json] [-fail-on sev] [-taint] [-policy out.json] [-metrics] program.ir ...")
		os.Exit(2)
	}
	if *policyOut != "" && flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "polarlint: -policy needs exactly one input module")
		os.Exit(2)
	}
	if *factsOut != "" && flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "polarlint: -facts needs exactly one input module")
		os.Exit(2)
	}
	var dynTainted []string
	if *taintReport != "" {
		pol, err := policy.Load(*taintReport)
		if err != nil {
			fmt.Fprintln(os.Stderr, "polarlint:", err)
			os.Exit(2)
		}
		dynTainted = pol.Targets
	}

	var gate analysis.Severity
	if *failOn != "none" {
		sev, err := analysis.ParseSeverity(*failOn)
		if err != nil {
			fmt.Fprintln(os.Stderr, "polarlint:", err)
			os.Exit(2)
		}
		gate = sev
	}

	k := analysis.ContextInsensitive
	if *contextK > 0 {
		k = *contextK
	}
	reg := telemetry.NewRegistry()
	failed := false
	var jsonResults []*analysis.Result
	for _, path := range flag.Args() {
		m, res, err := lintFile(path, analysis.Options{
			Metrics: reg, ContextK: k, SiteFacts: *factsOut != "",
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "polarlint:", err)
			os.Exit(2)
		}
		if *factsOut != "" {
			data, err := res.Sites.EncodeJSON()
			if err == nil {
				err = os.WriteFile(*factsOut, data, 0o644)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "polarlint:", err)
				os.Exit(2)
			}
			fmt.Fprintf(os.Stderr, "polarlint: wrote facts for %d sites to %s\n",
				len(res.Sites.Sites), *factsOut)
		}
		if gate != 0 && res.Findings.CountAtLeast(gate) > 0 {
			failed = true
		}
		if *jsonOut {
			jsonResults = append(jsonResults, res)
			continue
		}
		if flag.NArg() > 1 {
			fmt.Printf("== %s (%s)\n", path, res.Module)
		}
		fmt.Print(res.Findings.Render())
		if *taintOut {
			printTaint(res)
		}
		if *suggest {
			printSuggestions(m, res, dynTainted)
		}
		if *policyOut != "" {
			pol := res.Taint.Policy("polarlint -policy")
			if err := pol.Save(*policyOut); err != nil {
				fmt.Fprintln(os.Stderr, "polarlint:", err)
				os.Exit(2)
			}
			fmt.Fprintf(os.Stderr, "polarlint: wrote policy for %d classes to %s\n", len(pol.Targets), *policyOut)
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if len(jsonResults) == 1 {
			_ = enc.Encode(jsonResults[0])
		} else {
			_ = enc.Encode(jsonResults)
		}
	}
	if *metricsOut {
		printMetrics(reg)
	}
	if failed {
		os.Exit(1)
	}
}

func lintFile(path string, opts analysis.Options) (*ir.Module, *analysis.Result, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	m, err := polar.Parse(string(src))
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	// The passes assume a well-formed module, as the VM does.
	if err := polar.Validate(m); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, analysis.Analyze(m, opts), nil
}

func printSuggestions(m *ir.Module, res *analysis.Result, dynTainted []string) {
	sug := analysis.SuggestNoRandom(m, res, dynTainted)
	if len(sug) == 0 {
		fmt.Println("suggest: no norandom candidates")
		return
	}
	for _, s := range sug {
		fmt.Printf("suggest: norandom %%%s — %s [%s]\n",
			s.Class, s.Reason, strings.Join(s.Rules, ", "))
	}
}

func printTaint(res *analysis.Result) {
	if res.Taint == nil || len(res.Taint.Classes) == 0 {
		fmt.Println("static taint: no input-tainted classes")
		return
	}
	fmt.Println("static taint (ranked):")
	for _, c := range res.Taint.Classes {
		marks := ""
		if c.ContentTainted {
			marks += "C"
		}
		if c.AllocTainted {
			marks += "A"
		}
		if c.FreeTainted {
			marks += "F"
		}
		fields := ""
		for i, f := range c.Fields {
			if i > 0 {
				fields += ","
			}
			fields += f.Name
			if f.IsPointer {
				fields += "*"
			}
		}
		fmt.Printf("  %-28s score=%.2f  [%s]  %s\n", c.Class, c.Score, marks, fields)
	}
}

func printMetrics(reg *telemetry.Registry) {
	snap := reg.Snapshot()
	names := make([]string, 0, len(snap.Gauges)+len(snap.Counters))
	for n := range snap.Gauges {
		names = append(names, n)
	}
	for n := range snap.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if g, ok := snap.Gauges[n]; ok {
			fmt.Fprintf(os.Stderr, "%-28s %.6f\n", n, g)
		} else {
			fmt.Fprintf(os.Stderr, "%-28s %d\n", n, snap.Counters[n])
		}
	}
}
