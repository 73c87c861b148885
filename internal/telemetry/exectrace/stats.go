package exectrace

import (
	"fmt"
	"sort"
	"strings"

	"polar/internal/telemetry"
)

// TraceStats aggregates one trace into the rollups `polartrace stats`
// prints and CrossCheck validates against the metrics registry.
type TraceStats struct {
	Total    int    // decoded event records
	Count    uint64 // footer record count
	Dropped  uint64 // footer drop count
	Complete bool

	ByKind map[string]int

	Allocs, Frees int
	Getptrs       int
	CacheHits     int // getptr res=cache-hit
	Metadata      int // getptr res=metadata
	Stateless     int // getptr res=stateless
	Static        int // getptr res=static
	Blocks, Calls int
	Violations    int

	// ByClass keys on the class detail name when the trace carries one
	// (hardened allocs record the class name as Detail), else the hash.
	ByClass map[string]*ClassStats
	// BySite counts getptr resolutions per site — the trace-level
	// analogue of the hot-site profiler.
	BySite map[string]int
}

// ClassStats is the per-class rollup.
type ClassStats struct {
	Allocs, Frees int
	Getptrs       int
	Layouts       map[uint64]struct{}
}

// Compute aggregates t.
func Compute(t *Trace) *TraceStats {
	s := &TraceStats{
		Count: t.Count, Dropped: t.Dropped, Complete: t.Complete,
		ByKind:  map[string]int{},
		ByClass: map[string]*ClassStats{},
		BySite:  map[string]int{},
	}
	classKey := func(r Record) string {
		if r.Detail != "" {
			return r.Detail
		}
		return fmt.Sprintf("%#x", r.Class)
	}
	cls := func(key string) *ClassStats {
		c := s.ByClass[key]
		if c == nil {
			c = &ClassStats{Layouts: map[uint64]struct{}{}}
			s.ByClass[key] = c
		}
		return c
	}
	// classNames remembers hash -> detail-name bindings seen on allocs
	// so frees and getptrs (which carry only the hash) fold into the
	// same row.
	classNames := map[uint64]string{}
	for _, r := range t.Records {
		s.Total++
		s.ByKind[r.Kind.String()]++
		switch r.Kind {
		case KindAlloc:
			s.Allocs++
			key := classKey(r)
			if r.Class != 0 && r.Detail != "" {
				classNames[r.Class] = r.Detail
			}
			c := cls(key)
			c.Allocs++
			if r.Layout != 0 {
				c.Layouts[r.Layout] = struct{}{}
			}
		case KindFree:
			s.Frees++
			key := classNames[r.Class]
			if key == "" {
				key = fmt.Sprintf("%#x", r.Class)
			}
			cls(key).Frees++
		case KindGetptr:
			s.Getptrs++
			switch r.Res {
			case ResCacheHit:
				s.CacheHits++
			case ResMetadata:
				s.Metadata++
			case ResStateless:
				s.Stateless++
			case ResStatic:
				s.Static++
			}
			key := classNames[r.Class]
			if key == "" {
				key = fmt.Sprintf("%#x", r.Class)
			}
			cls(key).Getptrs++
			if r.Site != "" {
				s.BySite[r.Site]++
			}
		case KindBlock:
			s.Blocks++
		case KindCall:
			s.Calls++
		case KindViolation:
			s.Violations++
		}
	}
	return s
}

// Format renders the stats report: deterministic order (sorted keys),
// no timestamps.
func (s *TraceStats) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "records: %d (footer: %d, dropped: %d, complete: %v)\n", s.Total, s.Count, s.Dropped, s.Complete)
	sb.WriteString("by kind:\n")
	for _, k := range sortedKeys(s.ByKind) {
		fmt.Fprintf(&sb, "  %-12s %d\n", k, s.ByKind[k])
	}
	fmt.Fprintf(&sb, "getptr: %d (cache-hit %d, metadata %d, stateless %d, static %d)\n", s.Getptrs, s.CacheHits, s.Metadata, s.Stateless, s.Static)
	if len(s.ByClass) > 0 {
		sb.WriteString("by class:\n")
		keys := make([]string, 0, len(s.ByClass))
		for k := range s.ByClass {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			c := s.ByClass[k]
			fmt.Fprintf(&sb, "  %-16s allocs=%d frees=%d getptrs=%d layouts=%d\n", k, c.Allocs, c.Frees, c.Getptrs, len(c.Layouts))
		}
	}
	if len(s.BySite) > 0 {
		sb.WriteString("hot getptr sites:\n")
		type kv struct {
			site string
			n    int
		}
		rows := make([]kv, 0, len(s.BySite))
		for k, v := range s.BySite {
			rows = append(rows, kv{k, v})
		}
		sort.Slice(rows, func(i, j int) bool {
			if rows[i].n != rows[j].n {
				return rows[i].n > rows[j].n
			}
			return rows[i].site < rows[j].site
		})
		if len(rows) > 10 {
			rows = rows[:10]
		}
		for _, r := range rows {
			fmt.Fprintf(&sb, "  %-24s %d\n", r.site, r.n)
		}
	}
	return sb.String()
}

func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// CrossCheck validates the trace rollups against a metrics snapshot
// taken from the same run: every runtime operation the trace claims
// must match the "event.*" counters the bus-level counting sink saw.
// It returns one message per mismatch (empty = consistent).
//
// The trace and the counters read the same bus events, and a getptr is
// a hit exactly when its resolution is (telemetry.Resolution.Hit:
// cache-hit or stateless), so the check is exact on every run: either
// layout mode, either policy, including a run a violation aborted.
func CrossCheck(s *TraceStats, snap telemetry.Snapshot) []string {
	var out []string
	check := func(what string, traced int, counter string) {
		if got, ok := snap.Counters[counter]; ok || traced != 0 {
			if uint64(traced) != got {
				out = append(out, fmt.Sprintf("%s: trace has %d, registry %s=%d", what, traced, counter, got))
			}
		}
	}
	check("allocs", s.Allocs, "event.alloc")
	check("frees", s.Frees, "event.free")
	check("getptr hits (cache-hit + stateless)", s.CacheHits+s.Stateless, "event.fieldptr-hit")
	check("getptr misses (metadata + static)", s.Metadata+s.Static, "event.fieldptr-miss")
	check("violations", s.Violations, "event.violation")
	check("layout generations", s.ByKind["layout-gen"], "event.layout-gen")
	check("memcpy re-randomizations", s.ByKind["rerand"], "event.memcpy-rerand")
	return out
}
