package evalrun

import (
	"fmt"
	"strings"

	"polar/internal/core"
	"polar/internal/fuzz"
	"polar/internal/instrument"
	"polar/internal/taint"
	"polar/internal/vm"
	"polar/internal/workload"
)

// TaintRow is one row of Table I.
type TaintRow struct {
	App        string
	Count      int
	PaperCount int
	Samples    []string
	// FuzzExecs/FuzzEdges summarize the coverage-guided phase.
	FuzzExecs int
	FuzzEdges int
}

// TableI runs TaintClass (fuzzing + taint analysis) over every
// application workload and reports the tainted-object inventories.
// fuzzIters bounds the per-app fuzzing campaign (0 = skip fuzzing and
// analyze only the canonical input). Apps run across the worker pool;
// each fuzzes under its task-derived seed, so the rows are identical
// at any parallelism.
func TableI(fuzzIters int, seed int64) ([]TaintRow, error) {
	ws := workload.All()
	rows := make([]TaintRow, len(ws))
	err := forEach(len(ws), func(i int) error {
		w := ws[i]
		sp := Span(w.Name, "table1")
		defer sp.End()
		tseed := TaskSeed(seed, "table1/"+w.Name)
		corpus := [][]byte{w.Input}
		execs, edges := 0, 0
		if fuzzIters > 0 {
			fr, err := fuzz.Run(w.Module, corpus, fuzz.Config{
				Iterations: fuzzIters, MaxInputLen: 4096, Seed: tseed, Fuel: 30_000_000, Args: w.Args,
			})
			if err != nil {
				return fmt.Errorf("%s: fuzz: %w", w.Name, err)
			}
			corpus = fuzz.TaintInputs(corpus, fr.Corpus, fr.Crashers)
			execs, edges = fr.Execs, fr.Edges
		}
		rep, err := taint.Analyze(w.Module, corpus, taint.RunOptions{
			IgnoreRunErrors: true, Fuel: 60_000_000, Args: w.Args,
		})
		if err != nil {
			return fmt.Errorf("%s: taint: %w", w.Name, err)
		}
		classes := rep.TaintedClasses()
		samples := classes
		if len(samples) > 6 {
			samples = samples[:6]
		}
		rows[i] = TaintRow{
			App: w.Name, Count: len(classes), PaperCount: w.PaperTaintedCount,
			Samples: samples, FuzzExecs: execs, FuzzEdges: edges,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// RenderTableI renders the tainted-object table.
func RenderTableI(rows []TaintRow) string {
	var b strings.Builder
	b.WriteString("Table I: objects reported by the TaintClass framework\n")
	b.WriteString(fmt.Sprintf("%-22s %8s %8s  %s\n", "app", "#tainted", "paper", "samples"))
	for _, r := range rows {
		sample := strings.Join(r.Samples, ", ")
		if r.Count > len(r.Samples) {
			sample += ", ..."
		}
		if r.Count == 0 {
			sample = "-"
		}
		b.WriteString(fmt.Sprintf("%-22s %8d %8d  %s\n", r.App, r.Count, r.PaperCount, sample))
	}
	return b.String()
}

// CounterRow is one row of Table III: runtime counters against
// randomized objects.
type CounterRow struct {
	App          string
	Allocs       uint64
	Frees        uint64
	Memcpys      uint64
	MemberAccess uint64
	CacheHits    uint64
}

// CacheHitRate returns hits/accesses.
func (r CounterRow) CacheHitRate() float64 {
	if r.MemberAccess == 0 {
		return 0
	}
	return float64(r.CacheHits) / float64(r.MemberAccess)
}

// TableIII runs each SPEC mini-app hardened and reports the runtime
// counters (the scaled-down analogue of the paper's Table III). Apps
// run across the worker pool under task-derived seeds.
func TableIII(seed int64) ([]CounterRow, error) {
	ws := workload.SPECFig6()
	rows := make([]CounterRow, len(ws))
	err := forEach(len(ws), func(i int) error {
		w := ws[i]
		sp := Span(w.Name, "table3")
		defer sp.End()
		ins, err := instrument.Apply(w.Module, nil)
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		v, err := vm.New(ins.Module, vm.WithInput(w.Input))
		if err != nil {
			return err
		}
		rt := core.New(ins.Table, core.DefaultConfig(TaskSeed(seed, "table3/"+w.Name)))
		rt.Attach(v)
		if _, err := v.Run(w.Args...); err != nil {
			return fmt.Errorf("%s: run: %w", w.Name, err)
		}
		st := rt.Stats()
		rows[i] = CounterRow{
			App: w.Name, Allocs: st.Allocs, Frees: st.Frees, Memcpys: st.Memcpys,
			MemberAccess: st.MemberAccess, CacheHits: st.CacheHits,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// RenderTableIII renders the counters table.
func RenderTableIII(rows []CounterRow) string {
	var b strings.Builder
	b.WriteString("Table III: operations against randomized objects (scaled profiles)\n")
	b.WriteString(fmt.Sprintf("%-16s %10s %10s %10s %12s %12s %8s\n",
		"app", "alloc", "free", "memcpy", "member", "cache-hit", "hit%"))
	for _, r := range rows {
		b.WriteString(fmt.Sprintf("%-16s %10d %10d %10d %12d %12d %7.1f%%\n",
			r.App, r.Allocs, r.Frees, r.Memcpys, r.MemberAccess, r.CacheHits, 100*r.CacheHitRate()))
	}
	return b.String()
}

// CVERow is one row of Table IV.
type CVERow struct {
	CVE         string
	Description string
	Discovered  []string
	Expected    []string
	PaperSays   string
	Match       bool
}

// TableIV runs TaintClass over each CVE-shaped input against the
// mini-libpng parser and checks the exploit-related objects are
// discovered. Cases run across the worker pool, each against its own
// parser module (workload constructors build fresh modules).
func TableIV() ([]CVERow, error) {
	cases := workload.LibPNGCVECases()
	rows := make([]CVERow, len(cases))
	err := forEach(len(cases), func(i int) error {
		c := cases[i]
		sp := Span("CVE-"+c.CVE, "table4")
		defer sp.End()
		rep, err := taint.AnalyzeOne(workload.LibPNG().Module, c.Input, taint.RunOptions{
			IgnoreRunErrors: true, Fuel: 30_000_000,
		})
		if err != nil {
			return fmt.Errorf("CVE-%s: %w", c.CVE, err)
		}
		got := rep.TaintedClasses()
		rows[i] = CVERow{
			CVE: c.CVE, Description: c.Description,
			Discovered: got, Expected: c.ExpectedObjects, PaperSays: c.PaperObjects,
			Match: containsAll(got, c.ExpectedObjects),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

func containsAll(haystack, needles []string) bool {
	set := make(map[string]bool, len(haystack))
	for _, h := range haystack {
		set[h] = true
	}
	for _, n := range needles {
		if !set[n] {
			return false
		}
	}
	return true
}

// RenderTableIV renders the CVE discovery table.
func RenderTableIV(rows []CVERow) string {
	var b strings.Builder
	b.WriteString("Table IV: TaintClass discovery of exploit-related libpng objects\n")
	b.WriteString(fmt.Sprintf("%-12s %-52s %-8s %s\n", "CVE", "description", "found", "objects"))
	for _, r := range rows {
		status := "yes"
		if !r.Match {
			status = "MISS"
		}
		b.WriteString(fmt.Sprintf("%-12s %-52s %-8s %s\n",
			r.CVE, r.Description, status, strings.Join(r.Discovered, ", ")))
	}
	return b.String()
}
