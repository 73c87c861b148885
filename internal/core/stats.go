package core

import (
	"encoding/json"
	"fmt"
	"strings"

	"polar/internal/telemetry"
)

// String renders the runtime counters as a one-line key=value summary.
// Violations are listed by kind name in declaration order; "violations=0"
// when none fired.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "allocs=%d frees=%d memcpys=%d member-access=%d cache-hits=%d cache-misses=%d",
		s.Allocs, s.Frees, s.Memcpys, s.MemberAccess, s.CacheHits, s.CacheMisses)
	total := uint64(0)
	for _, kind := range AllViolationKinds() {
		if n := s.Violations[kind]; n > 0 {
			fmt.Fprintf(&b, " %s=%d", kind, n)
			total += n
		}
	}
	if total == 0 {
		b.WriteString(" violations=0")
	}
	fmt.Fprintf(&b, " layouts-unique=%d layouts-shared=%d", s.Meta.LayoutsUnique, s.Meta.LayoutsShared)
	return b.String()
}

// MarshalJSON implements json.Marshaler with stable snake_case keys.
// The violations map is keyed by kind name (sorted by encoding/json),
// so equal states always encode identically.
func (s Stats) MarshalJSON() ([]byte, error) {
	viol := make(map[string]uint64, len(s.Violations))
	for k, v := range s.Violations {
		viol[k.String()] = v
	}
	return json.Marshal(map[string]any{
		"allocs":             s.Allocs,
		"frees":              s.Frees,
		"memcpys":            s.Memcpys,
		"member_access":      s.MemberAccess,
		"cache_hits":         s.CacheHits,
		"cache_misses":       s.CacheMisses,
		"violations":         viol,
		"violations_dropped": s.ViolationsDropped,
		"meta":               s.Meta,
	})
}

// Publish snapshots the counters into a telemetry registry under the
// "core." prefix. The runtime counts natively (the olr_getptr path is
// too hot for registry indirection); Publish is the registry bridge,
// called by Runtime.Stats() when telemetry is attached.
func (s Stats) Publish(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	reg.Counter("core.allocs").Set(s.Allocs)
	reg.Counter("core.frees").Set(s.Frees)
	reg.Counter("core.memcpys").Set(s.Memcpys)
	reg.Counter("core.member_access").Set(s.MemberAccess)
	reg.Counter("core.cache_hits").Set(s.CacheHits)
	reg.Counter("core.cache_misses").Set(s.CacheMisses)
	reg.Counter("core.meta_probes").Set(s.MetaProbes)
	reg.Counter("core.peak_live_objects").Set(s.PeakLive)
	for _, kind := range AllViolationKinds() {
		if n := s.Violations[kind]; n > 0 {
			reg.Counter("core.violation." + kind.String()).Set(n)
		}
	}
	// Always published (even at zero) so dashboards can alert on any
	// transition away from "no detail lost".
	reg.Counter("core.violations_dropped").Set(s.ViolationsDropped)
	s.Meta.Publish(reg)
}

// TotalViolations sums detections across all kinds.
func (s Stats) TotalViolations() uint64 {
	var total uint64
	for _, n := range s.Violations {
		total += n
	}
	return total
}

// String renders the metadata-table counters as a one-line summary.
func (s MetaStats) String() string {
	return fmt.Sprintf("registered=%d retired=%d layouts-unique=%d layouts-shared=%d",
		s.Registered, s.Retired, s.LayoutsUnique, s.LayoutsShared)
}

// MarshalJSON implements json.Marshaler with stable snake_case keys.
func (s MetaStats) MarshalJSON() ([]byte, error) {
	out := map[string]any{
		"registered":     s.Registered,
		"retired":        s.Retired,
		"layouts_unique": s.LayoutsUnique,
		"layouts_shared": s.LayoutsShared,
	}
	if len(s.Shards) > 0 {
		shards := make([]map[string]uint64, len(s.Shards))
		for i, sh := range s.Shards {
			shards[i] = map[string]uint64{
				"registered": sh.Registered,
				"retired":    sh.Retired,
				"live":       sh.Live,
				"total":      sh.Total,
			}
		}
		out["shards"] = shards
	}
	return json.Marshal(out)
}

// Publish snapshots the counters into a telemetry registry under the
// "core.meta." prefix, including the per-shard breakdown
// ("core.meta.shard.NN.*") and a load-imbalance gauge (max/mean
// registrations across shards; 1.0 = perfectly even).
func (s MetaStats) Publish(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	reg.Counter("core.meta.registered").Set(s.Registered)
	reg.Counter("core.meta.retired").Set(s.Retired)
	reg.Counter("core.meta.layouts_unique").Set(s.LayoutsUnique)
	reg.Counter("core.meta.layouts_shared").Set(s.LayoutsShared)
	if len(s.Shards) == 0 {
		return
	}
	var maxReg uint64
	for i, sh := range s.Shards {
		prefix := fmt.Sprintf("core.meta.shard.%02d.", i)
		reg.Counter(prefix + "registered").Set(sh.Registered)
		reg.Counter(prefix + "retired").Set(sh.Retired)
		reg.Gauge(prefix + "live").Set(float64(sh.Live))
		reg.Gauge(prefix + "total").Set(float64(sh.Total))
		if sh.Registered > maxReg {
			maxReg = sh.Registered
		}
	}
	if s.Registered > 0 {
		mean := float64(s.Registered) / float64(len(s.Shards))
		reg.Gauge("core.meta.shard_imbalance").Set(float64(maxReg) / mean)
	}
}
