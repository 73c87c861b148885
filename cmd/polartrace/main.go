// Command polartrace inspects, aggregates and diffs deterministic
// execution traces (schema polar-exectrace/v1) written by polarun
// -exectrace, polarbench -exectrace or polar.WithExecTrace.
//
// Usage:
//
//	polartrace inspect [-kind k] [-site s] [-class hex] [-n max] trace.xt
//	polartrace stats   [-metrics snapshot.json] trace.xt
//	polartrace diff    a.xt b.xt
//
// inspect prints records one per line in program order, optionally
// filtered by record kind ("alloc", "getptr", ...), site substring, or
// class hash. stats aggregates the trace (record mix, resolution-path
// split, per-class and per-site tallies) and, given a polarun -metrics
// JSON snapshot, cross-checks the trace against the counter registry.
//
// diff is the divergence localizer: because traces are byte-identical
// for the same module and seed, the first differing record between two
// traces is the first differing runtime event. It prints the shared
// context, both divergent records, and exits 1 — or exits 0 silently
// when the traces are identical. Typical use is pinning down where two
// seeds (or two builds) part ways:
//
//	polarun -harden -seed 7 -exectrace a.xt prog.ir
//	polarun -harden -seed 8 -exectrace b.xt prog.ir
//	polartrace diff a.xt b.xt
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"polar/internal/telemetry"
	"polar/internal/telemetry/exectrace"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "inspect":
		err = inspect(os.Args[2:])
	case "stats":
		err = stats(os.Args[2:])
	case "diff":
		err = diff(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "polartrace: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "polartrace:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  polartrace inspect [-kind k] [-site s] [-class hex] [-n max] trace.xt
  polartrace stats   [-metrics snapshot.json] trace.xt
  polartrace diff    a.xt b.xt`)
}

// inspect prints the records of one trace, filtered.
func inspect(args []string) error {
	fs := flag.NewFlagSet("inspect", flag.ExitOnError)
	kind := fs.String("kind", "", "only records of this kind (alloc, free, getptr, block, call, fuel, violation, layout-gen, rerand, event)")
	site := fs.String("site", "", "only records whose site or function contains this substring")
	class := fs.String("class", "", "only records with this class hash (hex or decimal)")
	max := fs.Int("n", 0, "stop after printing this many records (0 = all)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("inspect wants exactly one trace file")
	}
	var classHash uint64
	if *class != "" {
		v, err := strconv.ParseUint(strings.TrimPrefix(*class, "0x"), 16, 64)
		if err != nil {
			if v, err = strconv.ParseUint(*class, 10, 64); err != nil {
				return fmt.Errorf("bad -class %q: %w", *class, err)
			}
		}
		classHash = v
	}
	t, err := exectrace.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	printed := 0
	for i, r := range t.Records {
		if *kind != "" && r.Kind.String() != *kind {
			continue
		}
		if *site != "" && !strings.Contains(r.Site, *site) && !strings.Contains(r.Fn, *site) {
			continue
		}
		if *class != "" && r.Class != classHash {
			continue
		}
		fmt.Printf("%6d  %s\n", i, r.Format())
		printed++
		if *max > 0 && printed >= *max {
			break
		}
	}
	if !t.Complete {
		fmt.Fprintln(os.Stderr, "polartrace: warning: trace has no footer (producer did not Close; it may be truncated)")
	}
	if t.Dropped > 0 {
		fmt.Fprintf(os.Stderr, "polartrace: warning: producer dropped %d records (cap or write error)\n", t.Dropped)
	}
	return nil
}

// stats aggregates one trace and optionally cross-checks it against a
// polarun -metrics JSON snapshot.
func stats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	metrics := fs.String("metrics", "", "cross-check the trace against this polarun -metrics JSON snapshot")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("stats wants exactly one trace file")
	}
	t, err := exectrace.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	s := exectrace.Compute(t)
	fmt.Print(s.Format())
	if *metrics != "" {
		data, err := os.ReadFile(*metrics)
		if err != nil {
			return err
		}
		var snap telemetry.Snapshot
		if err := json.Unmarshal(data, &snap); err != nil {
			return fmt.Errorf("parsing %s: %w", *metrics, err)
		}
		if problems := exectrace.CrossCheck(s, snap); len(problems) > 0 {
			for _, p := range problems {
				fmt.Fprintln(os.Stderr, "polartrace: cross-check:", p)
			}
			return fmt.Errorf("trace disagrees with the metrics registry (%d mismatches)", len(problems))
		}
		fmt.Println("cross-check: trace agrees with the metrics registry")
	}
	return nil
}

// diff localizes the first divergent record between two traces.
func diff(args []string) error {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 2 {
		return fmt.Errorf("diff wants exactly two trace files")
	}
	a, err := exectrace.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	b, err := exectrace.ReadFile(fs.Arg(1))
	if err != nil {
		return err
	}
	if d := exectrace.Diff(a, b); d != nil {
		fmt.Print(d.Format(fs.Arg(0), fs.Arg(1)))
		os.Exit(1)
	}
	fmt.Printf("traces identical (%d records)\n", len(a.Records))
	return nil
}
