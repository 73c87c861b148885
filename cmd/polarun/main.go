// Command polarun executes an IR program on the POLaR virtual machine.
//
// Usage:
//
//	polarun [-hardened|-harden] [-input file] [-seed n] [-stats]
//	        [-runs n] [-parallel n] [-metrics] [-trace-json file]
//	        [-profile file] program.ir [args...]
//
// Programs run on the bytecode engine (compile-time lowering with fused
// superinstructions, DESIGN.md §8). With -trace the instruction log
// shows every source instruction, one line per micro-op of a fused run.
//
// Plain modules run on the bare VM; pass -hardened for modules produced
// by polarc (the POLaR runtime is attached and the class table
// recomputed from the declarations), or -harden to instrument a plain
// module in-process before running it. The program's printed output
// goes to stdout and @main's return value becomes a "result: N" line.
//
// -runs executes the program N times from one compiled form (the
// module is validated and laid out once; every run is a cheap
// instance). -parallel spreads the runs over a worker pool. Each run
// gets a seed derived from (-seed, run index), every run's output is
// verified identical to the first (layout randomization is
// semantics-preserving), and per-run metric registries are merged in
// run order so the -metrics snapshot is deterministic at any
// parallelism.
//
// Observability:
//
//	-stats        one-line counter summaries on stderr
//	-metrics      deterministic JSON metrics snapshot (counters, gauges,
//	              histograms) on stdout after the run
//	-trace-json   Chrome trace-event timeline (parse → cie → instrument →
//	              run phases, violation markers) written to the file;
//	              load it in chrome://tracing or Perfetto
//	-exectrace    deterministic binary execution trace (schema
//	              polar-exectrace/v1): block entries, calls, every olr_*
//	              operation with its resolved offset. Byte-identical for
//	              the same module+seed; inspect and diff with
//	              polartrace. -exectrace-limit caps records.
//	              With -runs the trace rides run 0, like -flight.
//	-profile      hot-site profile: interpreted cycles, member
//	              resolutions and metadata probes per IR site. The text
//	              top-N report goes to stderr and the pprof-compatible
//	              protobuf to the named file (`go tool pprof file`)
//	-profile-top  rows in the text report (default 15)
//	-cpuprofile   Go-level CPU profile of the interpreter itself
//	-memprofile   Go-level allocation profile, written after the run
//
// Forensics & health (DESIGN.md §10):
//
//	-prom         OpenMetrics text exposition of the metrics snapshot
//	              written to the file ("-" = stdout) after the run
//	-flight       attach the security flight recorder with a ring of N
//	              events (0 = off); on every violation the runtime
//	              snapshots a deterministic forensic dump
//	-flight-dump  write the forensic report JSON to this file after the
//	              run ("-" = stdout); implies -flight 256 if unset
//	-health       attach the health monitor (entropy gauges,
//	              offset-probe-scan and entropy-depletion detectors);
//	              report JSON on stderr after the run
//	-log          structured slog JSON for violations and health
//	              transitions appended to this file ("-" = stderr)
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"

	"log/slog"

	"polar"
	"polar/internal/evalrun"
	"polar/internal/telemetry"
	"polar/internal/telemetry/health"
	"polar/internal/telemetry/profile"
)

// runConfig carries the parsed flags.
type runConfig struct {
	hardened, harden bool
	inputPath        string
	seed             int64
	stats, warn      bool
	trace            int
	runs             int
	parallel         int
	metrics          bool
	traceJSON        string
	policyPath       string
	profilePath      string
	profileTop       int
	cpuProfile       string
	memProfile       string
	prom             string
	flightCap        int
	flightDump       string
	health           bool
	logPath          string
	exectrace        string
	exectraceLimit   uint64
	layoutMode       string
	rekeyEpoch       int
}

// outputConflict rejects two flags writing into the same file: the
// last writer would silently clobber the first, and for the binary
// execution trace any interleaving corrupts the stream. Streams ("-",
// "") are exempt — stdout/stderr interleaving is the caller's choice.
func outputConflict(c runConfig) error {
	seen := make(map[string]string)
	for _, t := range []struct{ flag, path string }{
		{"-trace-json", c.traceJSON},
		{"-exectrace", c.exectrace},
		{"-flight-dump", c.flightDump},
		{"-prom", c.prom},
		{"-profile", c.profilePath},
		{"-cpuprofile", c.cpuProfile},
		{"-memprofile", c.memProfile},
		{"-log", c.logPath},
	} {
		if t.path == "" || t.path == "-" {
			continue
		}
		if prev, dup := seen[t.path]; dup {
			return fmt.Errorf("%s and %s both write to %q: choose distinct output files", prev, t.flag, t.path)
		}
		seen[t.path] = t.flag
	}
	if c.exectrace == "-" {
		return fmt.Errorf("-exectrace cannot write the binary trace to stdout (it would interleave with program output); name a file")
	}
	return nil
}

func main() {
	var c runConfig
	flag.BoolVar(&c.hardened, "hardened", false, "attach the POLaR runtime (for polarc output)")
	flag.BoolVar(&c.harden, "harden", false, "instrument the module in-process, then run hardened")
	flag.StringVar(&c.inputPath, "input", "", "file whose bytes become the untrusted program input")
	flag.Int64Var(&c.seed, "seed", 1, "randomization seed for the POLaR runtime")
	flag.BoolVar(&c.stats, "stats", false, "print runtime counters to stderr")
	flag.BoolVar(&c.warn, "warn", false, "count violations instead of aborting")
	flag.IntVar(&c.trace, "trace", 0, "trace the first N executed instructions to stderr")
	flag.IntVar(&c.runs, "runs", 1, "execute the program this many times from one compiled form")
	flag.IntVar(&c.parallel, "parallel", 0, "worker pool width for -runs (0 = GOMAXPROCS, 1 = serial)")
	flag.BoolVar(&c.metrics, "metrics", false, "print a JSON metrics snapshot to stdout after the run")
	flag.StringVar(&c.traceJSON, "trace-json", "", "write a Chrome trace-event timeline to this file")
	flag.StringVar(&c.policyPath, "policy", "", "apply a policy file's per-class tuning (with -hardened)")
	flag.StringVar(&c.profilePath, "profile", "", "write a pprof-format hot-site profile to this file (text report on stderr)")
	flag.IntVar(&c.profileTop, "profile-top", 15, "rows in the hot-site text report")
	flag.StringVar(&c.cpuProfile, "cpuprofile", "", "write a Go CPU profile of the interpreter to this file")
	flag.StringVar(&c.memProfile, "memprofile", "", "write a Go allocation profile to this file after the run")
	flag.StringVar(&c.prom, "prom", "", "write an OpenMetrics text exposition to this file after the run (\"-\" = stdout)")
	flag.IntVar(&c.flightCap, "flight", 0, "attach the security flight recorder with a ring of N events (0 = off)")
	flag.StringVar(&c.flightDump, "flight-dump", "", "write the forensic report JSON to this file (\"-\" = stdout; implies -flight)")
	flag.BoolVar(&c.health, "health", false, "attach the health monitor (report JSON on stderr after the run)")
	flag.StringVar(&c.logPath, "log", "", "append slog JSON records for violations and health transitions to this file (\"-\" = stderr)")
	flag.StringVar(&c.exectrace, "exectrace", "", "write the deterministic binary execution trace (polar-exectrace/v1) to this file")
	flag.Uint64Var(&c.exectraceLimit, "exectrace-limit", 0, "stop recording execution-trace events after N records (0 = unbounded; overflow is counted)")
	flag.StringVar(&c.layoutMode, "layout-mode", "metadata", "layout-resolution strategy: metadata (per-object table) or stateless (keyed derivation, no UAF detection)")
	flag.IntVar(&c.rekeyEpoch, "rekey-epoch", 0, "stateless mode: re-randomize every live object's layout after every N frees (0 = never)")
	flag.Parse()
	if err := outputConflict(c); err != nil {
		fmt.Fprintln(os.Stderr, "polarun:", err)
		os.Exit(2)
	}
	if _, err := polar.ParseLayoutMode(c.layoutMode); err != nil {
		fmt.Fprintln(os.Stderr, "polarun:", err)
		os.Exit(2)
	}
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: polarun [-hardened|-harden] [-input file] [-seed n] program.ir [args...]")
		os.Exit(2)
	}
	if err := run(c); err != nil {
		fmt.Fprintln(os.Stderr, "polarun:", err)
		os.Exit(1)
	}
}

func run(c runConfig) error {
	// The observability layer is created up front so the parse phase is
	// already on the trace timeline.
	if c.flightDump != "" && c.flightCap <= 0 {
		c.flightCap = 256
	}
	var tel *polar.Telemetry
	if c.metrics || c.traceJSON != "" || c.prom != "" || c.flightCap > 0 ||
		c.health || c.logPath != "" || c.exectrace != "" {
		tel = polar.NewTelemetry()
	}
	var logger *slog.Logger
	if c.logPath != "" {
		w := os.Stderr
		if c.logPath != "-" {
			f, err := os.OpenFile(c.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return err
			}
			defer f.Close()
			w = f
		}
		logger = slog.New(slog.NewJSONHandler(w, nil))
		tel.Bus.Attach(telemetry.NewSlogSink(logger))
	}
	var rec *polar.FlightRecorder
	if c.flightCap > 0 {
		rec = polar.NewFlightRecorder(c.flightCap)
	}
	var hmon *health.Monitor
	if c.health {
		hmon = health.NewMonitor(logger)
		hmon.AttachOnce(tel.Bus)
	}
	if c.traceJSON != "" {
		f, err := os.Create(c.traceJSON)
		if err != nil {
			return err
		}
		bw := bufio.NewWriter(f)
		tr := polar.NewTracer(bw)
		// Cleanup order matters and must run on every exit path —
		// including error returns mid-pipeline — so even an aborted run
		// leaves a parseable timeline: the tracer terminates the JSON
		// array, the buffer flushes it, the file closes. Failures are
		// surfaced (a silently truncated trace looks complete).
		defer func() {
			if err := tr.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "polarun: closing trace:", err)
			}
			if err := bw.Flush(); err != nil {
				fmt.Fprintln(os.Stderr, "polarun: flushing trace:", err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "polarun: closing trace file:", err)
			}
		}()
		tel.WithTracer(tr)
	}
	var xw *polar.ExecTraceWriter
	if c.exectrace != "" {
		f, err := os.Create(c.exectrace)
		if err != nil {
			return err
		}
		if c.exectraceLimit > 0 {
			xw = polar.NewExecTraceLimit(f, c.exectraceLimit)
		} else {
			xw = polar.NewExecTrace(f)
		}
		// Deliberately a separate defer from the -trace-json one: each
		// trace must land on disk complete (footer, flush, close) even
		// when the other — or the run itself — fails.
		defer func() {
			if err := xw.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "polarun: closing execution trace:", err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "polarun: closing execution trace file:", err)
			}
		}()
	}
	var prof *polar.SiteProfiler
	if c.profilePath != "" {
		prof = polar.NewSiteProfiler()
	}
	if c.cpuProfile != "" {
		f, err := os.Create(c.cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		stop, err := profile.StartCPUProfile(f)
		if err != nil {
			return err
		}
		defer stop()
	}

	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		return err
	}
	var sp *polar.TraceSpan
	if tel != nil && tel.Tracer != nil {
		sp = tel.Tracer.Begin("parse", "pipeline")
	}
	m, err := polar.Parse(string(src))
	sp.End()
	if err != nil {
		return err
	}
	var input []byte
	if c.inputPath != "" {
		if input, err = os.ReadFile(c.inputPath); err != nil {
			return err
		}
	}
	var args []int64
	for _, a := range flag.Args()[1:] {
		v, err := strconv.ParseInt(a, 0, 64)
		if err != nil {
			return fmt.Errorf("bad argument %q: %w", a, err)
		}
		args = append(args, v)
	}

	// Compile once: the module is validated and its globals laid out a
	// single time; every run below stamps a cheap instance off the
	// shared program.
	var prep *polar.Prepared
	switch {
	case c.harden:
		h, herr := polar.HardenTraced(m, nil, tel)
		if herr != nil {
			return herr
		}
		prep, err = polar.PrepareHardened(h)
	case c.hardened:
		prep, err = polar.PrepareHardened(&polar.Hardened{Module: m})
	default:
		prep, err = polar.Prepare(m)
	}
	if err != nil {
		return err
	}
	var pol *polar.Policy
	if c.policyPath != "" {
		if pol, err = polar.LoadPolicy(c.policyPath); err != nil {
			return err
		}
	}

	runs := c.runs
	if runs < 1 {
		runs = 1
	}
	// Run 0 keeps the live telemetry (bus, tracer) and the instruction
	// trace; later runs get private registries that are merged below in
	// run order, so the -metrics snapshot is deterministic at any
	// parallelism. A single run keeps the exact -seed; multiple runs
	// derive per-run seeds so layouts differ while outputs must not.
	tels := make([]*polar.Telemetry, runs)
	results := make([]*polar.Result, runs)
	optsFor := func(i int) []polar.Option {
		seed := c.seed
		if runs > 1 {
			seed = evalrun.TaskSeed(c.seed, fmt.Sprintf("run/%d", i))
		}
		opts := []polar.Option{polar.WithSeed(seed), polar.WithInput(input), polar.WithArgs(args...)}
		// Validated at startup; the zero value (metadata) applies on "".
		mode, _ := polar.ParseLayoutMode(c.layoutMode)
		opts = append(opts, polar.WithLayoutMode(mode))
		if c.rekeyEpoch > 0 {
			opts = append(opts, polar.WithRekeyEvery(c.rekeyEpoch))
		}
		if c.warn {
			opts = append(opts, polar.WithWarnPolicy())
		}
		if c.trace > 0 && i == 0 {
			opts = append(opts, polar.WithTrace(os.Stderr, c.trace))
		}
		if tel != nil {
			t := tel
			if i > 0 {
				t = polar.NewTelemetry()
				tels[i] = t
			}
			opts = append(opts, polar.WithTelemetry(t))
		}
		if prof != nil {
			opts = append(opts, polar.WithProfiler(prof))
		}
		// The flight recorder rides run 0 only: its ring is fed from run
		// 0's live bus, and a single run keeps dumps deterministic under
		// -parallel.
		if rec != nil && i == 0 {
			opts = append(opts, polar.WithFlightRecorder(rec))
		}
		// Like the flight recorder, the execution trace rides run 0 only:
		// one writer, one program-ordered stream, deterministic bytes at
		// any -parallel width.
		if xw != nil && i == 0 {
			opts = append(opts, polar.WithExecTrace(xw))
		}
		if pol != nil {
			opts = append(opts, polar.WithPolicy(pol))
		}
		return opts
	}
	runErr := evalrun.ForEach(runs, c.parallel, func(i int) error {
		var sp *polar.TraceSpan
		if tel != nil && tel.Tracer != nil {
			sp = tel.Tracer.Begin(fmt.Sprintf("run/%d", i), "pipeline")
		}
		r, rerr := prep.Run(optsFor(i)...)
		sp.End()
		if rerr != nil {
			if runs > 1 {
				return fmt.Errorf("run %d: %w", i, rerr)
			}
			return rerr
		}
		results[i] = r
		return nil
	})
	if runErr == nil {
		runErr = printResults(c, results, tels, tel)
	}
	// Fold the loss counters owned by attached components into the
	// registry so the -metrics/-prom snapshots surface trace and ring
	// drops (nil receivers are no-ops).
	rec.Publish(telRegistry(tel))
	xw.Publish(telRegistry(tel))
	// The reports are written when a violation aborted the run too: the
	// flight dump, metrics and health verdict matter most then.
	if err := writeReports(c, tel, prof, rec, hmon); err != nil {
		if runErr != nil {
			fmt.Fprintln(os.Stderr, "polarun:", err)
		} else {
			runErr = err
		}
	}
	if runErr != nil {
		return runErr
	}
	if hmon != nil && hmon.Status() == health.StatusCritical {
		return fmt.Errorf("health monitor CRITICAL: %v", hmon.Report().Reasons)
	}
	return nil
}

// printResults merges the later runs' metrics into run 0's registry,
// checks that every run printed what run 0 printed, and writes run 0's
// output, result and -stats lines.
func printResults(c runConfig, results []*polar.Result, tels []*polar.Telemetry, tel *polar.Telemetry) error {
	res := results[0]
	for i := 1; i < len(results); i++ {
		if tels[i] != nil {
			if err := tel.Registry.Merge(tels[i].Registry.Snapshot()); err != nil {
				return fmt.Errorf("merging run %d metrics: %w", i, err)
			}
		}
		if results[i].Value != res.Value || !bytes.Equal(results[i].Output, res.Output) {
			return fmt.Errorf("run %d diverged from run 0: layout randomization must be semantics-preserving", i)
		}
	}
	if len(results) > 1 {
		fmt.Fprintf(os.Stderr, "polarun: %d runs, all outputs identical\n", len(results))
	}
	os.Stdout.Write(res.Output)
	fmt.Printf("result: %d\n", res.Value)
	if c.stats {
		fmt.Fprintf(os.Stderr, "vm: %s\n", res.VM)
		fmt.Fprintf(os.Stderr, "vm-perf: %s\n", res.Perf)
		if c.hardened || c.harden {
			fmt.Fprintf(os.Stderr, "runtime: %s\n", res.Runtime)
			if res.ViolationsTruncated {
				fmt.Fprintf(os.Stderr, "runtime: violation log truncated (%d records dropped)\n", res.ViolationsDropped)
			}
		}
	}
	return nil
}

// writeReports writes the hot-site and allocation profiles, the
// -metrics and -prom snapshots, the -flight-dump report and the -health
// verdict, each only when asked for.
func writeReports(c runConfig, tel *polar.Telemetry, prof *polar.SiteProfiler, rec *polar.FlightRecorder, hmon *health.Monitor) error {
	if c.profilePath != "" {
		fmt.Fprint(os.Stderr, prof.Report(c.profileTop))
		f, err := os.Create(c.profilePath)
		if err != nil {
			return err
		}
		if err := prof.WritePprof(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if c.memProfile != "" {
		f, err := os.Create(c.memProfile)
		if err != nil {
			return err
		}
		if err := profile.WriteAllocProfile(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if c.metrics {
		data, err := tel.Registry.Snapshot().EncodeJSON()
		if err != nil {
			return err
		}
		os.Stdout.Write(data)
		fmt.Println()
	}
	if c.prom != "" {
		if err := writeProm(c.prom, tel); err != nil {
			return err
		}
	}
	if rec != nil {
		rec.CaptureFinal()
		if c.flightDump != "" {
			data, err := rec.Encode()
			if err != nil {
				return err
			}
			if c.flightDump == "-" {
				os.Stdout.Write(data)
				fmt.Println()
			} else if err := os.WriteFile(c.flightDump, data, 0o644); err != nil {
				return err
			}
		}
	}
	if hmon != nil {
		rep := hmon.Report()
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "polarun: health %s\n%s\n", rep.Status, data)
	}
	return nil
}

// telRegistry unwraps the registry from a possibly-nil telemetry.
func telRegistry(tel *polar.Telemetry) *telemetry.Registry {
	if tel == nil {
		return nil
	}
	return tel.Registry
}

// writeProm renders the registry snapshot in OpenMetrics text format.
func writeProm(path string, tel *polar.Telemetry) error {
	snap := tel.Registry.Snapshot()
	if path == "-" {
		return snap.WriteOpenMetrics(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := snap.WriteOpenMetrics(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
