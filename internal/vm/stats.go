package vm

import (
	"encoding/json"
	"fmt"

	"polar/internal/telemetry"
)

// String renders the counters as a one-line summary (the format CLI
// tools print; keep it grep-friendly, key=value).
func (s Stats) String() string {
	return fmt.Sprintf("instructions=%d allocs=%d frees=%d memcpys=%d field-access=%d calls=%d max-depth=%d",
		s.Instructions, s.Allocs, s.Frees, s.Memcpys, s.FieldAccess, s.Calls, s.MaxDepth)
}

// MarshalJSON implements json.Marshaler with stable snake_case keys.
func (s Stats) MarshalJSON() ([]byte, error) {
	return json.Marshal(map[string]uint64{
		"instructions": s.Instructions,
		"allocs":       s.Allocs,
		"frees":        s.Frees,
		"memcpys":      s.Memcpys,
		"field_access": s.FieldAccess,
		"calls":        s.Calls,
		"max_depth":    uint64(s.MaxDepth),
	})
}

// Publish snapshots the counters into a telemetry registry under the
// "vm." prefix. The VM increments its Stats natively (the interpreter
// loop is too hot for indirection); Publish is the bridge to the
// unified registry, called after a run or at sampling points.
func (s Stats) Publish(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	reg.Counter("vm.instructions").Set(s.Instructions)
	reg.Counter("vm.allocs").Set(s.Allocs)
	reg.Counter("vm.frees").Set(s.Frees)
	reg.Counter("vm.memcpys").Set(s.Memcpys)
	reg.Counter("vm.field_access").Set(s.FieldAccess)
	reg.Counter("vm.calls").Set(s.Calls)
	reg.Gauge("vm.max_depth").Set(float64(s.MaxDepth))
}

// Perf holds engine-strategy counters: the dispatch loops' layout-cache
// traffic at olr_getptr sites and bcFused superinstruction dispatches.
// They are deliberately NOT part of Stats — the engine differential
// suite holds Stats to struct equality across engines, while these
// legitimately differ (the tree-walker never dispatches fused runs; a
// taint run never reads the layout cache).
type Perf struct {
	// InlineHits/InlineMisses count the dispatch loops' layout-cache
	// lookups at olr_getptr sites (a hit skips the builtin; a miss calls
	// it). In metadata mode they are the offset cache's hits and misses.
	InlineHits   uint64
	InlineMisses uint64
	// FusedDispatches counts bcFused dispatches, each of which executes
	// a whole micro-op run. Every straight-line instruction is a micro of
	// one, so this counts every straight-line dispatch.
	FusedDispatches uint64
}

// String renders the perf counters key=value, like Stats.String.
func (p Perf) String() string {
	return fmt.Sprintf("inline-cache-hits=%d inline-cache-misses=%d fused-dispatches=%d",
		p.InlineHits, p.InlineMisses, p.FusedDispatches)
}

// HitRate returns the layout-cache hit fraction (0 when no lookups).
func (p Perf) HitRate() float64 {
	if t := p.InlineHits + p.InlineMisses; t > 0 {
		return float64(p.InlineHits) / float64(t)
	}
	return 0
}

// MarshalJSON implements json.Marshaler with stable snake_case keys.
func (p Perf) MarshalJSON() ([]byte, error) {
	return json.Marshal(map[string]uint64{
		"inline_cache_hits":   p.InlineHits,
		"inline_cache_misses": p.InlineMisses,
		"fused_dispatches":    p.FusedDispatches,
	})
}

// Publish snapshots the perf counters into a telemetry registry under
// the "vm." prefix (OpenMetrics: polar_vm_inline_cache_hits_total,
// polar_vm_inline_cache_misses_total, polar_vm_fused_dispatches_total).
func (p Perf) Publish(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	reg.Counter("vm.inline_cache.hits").Set(p.InlineHits)
	reg.Counter("vm.inline_cache.misses").Set(p.InlineMisses)
	reg.Counter("vm.fused_dispatches").Set(p.FusedDispatches)
}
