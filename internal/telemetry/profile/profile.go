// Package profile is the continuous-profiling layer: a VM-level
// hot-site profiler that attributes interpreted cycles, member
// resolutions and probes (resolutions that missed the fast path) to IR
// instruction sites ("@fn.block"), plus
// thin wrappers over Go's runtime profilers (CPU, allocations) so one
// -profile flag captures both the interpreted program and the
// interpreter itself.
//
// Per-access-path attribution is the point: aggregate counters say the
// offset cache hit 97% of the time, but only a site profile says which
// loop paid for the other 3%. The profiler exports both a human text
// report (Report) and pprof-compatible gzipped protobuf (WritePprof),
// so `go tool pprof` and its whole ecosystem work on interpreted code.
package profile

import (
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"polar/internal/telemetry"
)

// SiteCounts accumulates per-site costs. Fields are atomics so one
// profiler may serve concurrent VMs; the single-VM hot path is one
// atomic add per basic-block entry.
type SiteCounts struct {
	site    string
	cycles  atomic.Uint64 // interpreted instructions executed at the site
	getptrs atomic.Uint64 // olr_getptr resolutions issued from the site
	probes  atomic.Uint64 // resolutions that missed the fast path
}

// AddCycles charges n interpreted instructions to the site.
func (c *SiteCounts) AddCycles(n uint64) { c.cycles.Add(n) }

// IncGetptr counts one member resolution issued from the site.
func (c *SiteCounts) IncGetptr() { c.getptrs.Add(1) }

// IncProbe counts one probe from the site: a resolution that missed
// its strategy's fast path (an offset-cache miss, or the static arm).
func (c *SiteCounts) IncProbe() { c.probes.Add(1) }

// SiteSample is one row of a profiler snapshot.
type SiteSample struct {
	Site    string `json:"site"`
	Cycles  uint64 `json:"cycles"`
	Getptrs uint64 `json:"getptrs"`
	Probes  uint64 `json:"probes"`
}

// GenCounts counts layout generations charged to one class. Atomic for
// the same reason as SiteCounts: one profiler may serve concurrent
// runtimes.
type GenCounts struct {
	class string
	gens  atomic.Uint64
}

// Inc counts one layout generation for the class.
func (c *GenCounts) Inc() { c.gens.Add(1) }

// GenSample is one row of the per-class layout-generation snapshot.
type GenSample struct {
	Class string `json:"class"`
	Gens  uint64 `json:"layout_gen"`
}

// SiteProfiler aggregates SiteCounts by instruction site. The VM
// resolves a *SiteCounts once per site via Site and then counts cycles
// lock-free; the POLaR runtime's member resolutions and layout
// generations arrive as bus events (Event).
type SiteProfiler struct {
	mu        sync.Mutex
	sites     map[string]*SiteCounts
	classGens map[string]*GenCounts
}

// NewSiteProfiler returns an empty profiler.
func NewSiteProfiler() *SiteProfiler {
	return &SiteProfiler{
		sites:     make(map[string]*SiteCounts),
		classGens: make(map[string]*GenCounts),
	}
}

// Site returns the counter cell for an instruction site ("@fn.block"),
// creating it if needed. Callers should cache the pointer — this method
// takes the profiler lock.
func (p *SiteProfiler) Site(site string) *SiteCounts {
	p.mu.Lock()
	defer p.mu.Unlock()
	c, ok := p.sites[site]
	if !ok {
		c = &SiteCounts{site: site}
		p.sites[site] = c
	}
	return c
}

// ClassGen returns the layout-generation counter cell for a class,
// creating it if needed. Callers should cache the pointer — this method
// takes the profiler lock.
func (p *SiteProfiler) ClassGen(class string) *GenCounts {
	p.mu.Lock()
	defer p.mu.Unlock()
	c, ok := p.classGens[class]
	if !ok {
		c = &GenCounts{class: class}
		p.classGens[class] = c
	}
	return c
}

// Event implements telemetry.Sink: each getptr event counts one
// resolution at its site, plus a probe when it missed the fast path
// (telemetry.Resolution.Hit), and each layout-gen event one generation
// of its class.
func (p *SiteProfiler) Event(e telemetry.Event) {
	switch e.Kind {
	case telemetry.EvFieldHit, telemetry.EvFieldMiss:
		c := p.Site(e.Site)
		c.IncGetptr()
		if !e.Res.Hit() {
			c.IncProbe()
		}
	case telemetry.EvLayoutGen:
		p.ClassGen(e.Detail).Inc()
	}
}

// ClassGens returns the per-class layout-generation counts, most
// generations first; ties break on class name.
func (p *SiteProfiler) ClassGens() []GenSample {
	p.mu.Lock()
	out := make([]GenSample, 0, len(p.classGens))
	for _, c := range p.classGens {
		out = append(out, GenSample{Class: c.class, Gens: c.gens.Load()})
	}
	p.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Gens != out[j].Gens {
			return out[i].Gens > out[j].Gens
		}
		return out[i].Class < out[j].Class
	})
	return out
}

// Snapshot returns every site's counts, hottest (most cycles) first;
// ties break on site name so equal profiles render identically.
func (p *SiteProfiler) Snapshot() []SiteSample {
	p.mu.Lock()
	out := make([]SiteSample, 0, len(p.sites))
	for _, c := range p.sites {
		out = append(out, SiteSample{
			Site: c.site, Cycles: c.cycles.Load(),
			Getptrs: c.getptrs.Load(), Probes: c.probes.Load(),
		})
	}
	p.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cycles != out[j].Cycles {
			return out[i].Cycles > out[j].Cycles
		}
		return out[i].Site < out[j].Site
	})
	return out
}

// Totals sums the counters across all sites.
func (p *SiteProfiler) Totals() (cycles, getptrs, probes uint64) {
	for _, s := range p.Snapshot() {
		cycles += s.Cycles
		getptrs += s.Getptrs
		probes += s.Probes
	}
	return
}

// Report renders the top-N hot sites as a text table: interpreted
// cycles with cumulative percentage, member resolutions and
// metadata-probe counts with the per-site cache-hit rate.
func (p *SiteProfiler) Report(topN int) string {
	samples := p.Snapshot()
	totalCycles, _, _ := p.Totals()
	var b strings.Builder
	fmt.Fprintf(&b, "hot sites (%d total, %d interpreted cycles):\n", len(samples), totalCycles)
	fmt.Fprintf(&b, "  %-32s %12s %6s %6s %10s %10s %7s\n",
		"site", "cycles", "flat%", "cum%", "getptrs", "probes", "hit%")
	if topN <= 0 || topN > len(samples) {
		topN = len(samples)
	}
	cum := uint64(0)
	for _, s := range samples[:topN] {
		cum += s.Cycles
		flat, cumPct := 0.0, 0.0
		if totalCycles > 0 {
			flat = 100 * float64(s.Cycles) / float64(totalCycles)
			cumPct = 100 * float64(cum) / float64(totalCycles)
		}
		hit := "-"
		if s.Getptrs > 0 {
			hit = fmt.Sprintf("%.1f", 100*float64(s.Getptrs-s.Probes)/float64(s.Getptrs))
		}
		fmt.Fprintf(&b, "  %-32s %12d %5.1f%% %5.1f%% %10d %10d %7s\n",
			s.Site, s.Cycles, flat, cumPct, s.Getptrs, s.Probes, hit)
	}
	if gens := p.ClassGens(); len(gens) > 0 {
		fmt.Fprintf(&b, "layout generations by class:\n")
		fmt.Fprintf(&b, "  %-32s %12s\n", "class", "layout_gen")
		for _, g := range gens {
			fmt.Fprintf(&b, "  %-32s %12d\n", g.Class, g.Gens)
		}
	}
	return b.String()
}

// StartCPUProfile begins a Go CPU profile of the host process written
// to w; the returned stop function ends it. This profiles the
// interpreter (and everything around it) at the native level — the
// companion to the VM-level site profile.
func StartCPUProfile(w io.Writer) (stop func(), err error) {
	if err := pprof.StartCPUProfile(w); err != nil {
		return nil, fmt.Errorf("profile: start cpu: %w", err)
	}
	return pprof.StopCPUProfile, nil
}

// WriteAllocProfile writes a Go allocation (heap) profile to w after
// forcing a GC so the numbers reflect live retained memory accurately.
func WriteAllocProfile(w io.Writer) error {
	runtime.GC()
	if err := pprof.Lookup("allocs").WriteTo(w, 0); err != nil {
		return fmt.Errorf("profile: write alloc: %w", err)
	}
	return nil
}
