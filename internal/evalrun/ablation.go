package evalrun

import (
	"fmt"
	"strings"

	"polar/internal/core"
	"polar/internal/layout"
	"polar/internal/workload"
)

// AblationRow measures one design-choice variant on one app.
type AblationRow struct {
	Config      string
	App         string
	OverheadPct float64
	// CacheHitPct is the offset-cache hit rate of one representative
	// hardened run (0 for the stateless arm: no cache exists to hit).
	CacheHitPct float64
	// MetaProbes counts metadata-table lookups in that run — the
	// stateless arm's defining number is 0: no cache needed, no table
	// probed, every offset derived from the keyed hash.
	MetaProbes uint64
	// MetaBytesPerLive is the strategy's metadata footprint amortized
	// over the peak live-object population (bytes/object; 0 stateless).
	MetaBytesPerLive float64
	// FusedDispatches counts bcFused dispatches in the representative
	// run: every straight-line dispatch, since each straight-line
	// instruction is a micro of a fused run.
	FusedDispatches uint64
	// ICHitPct is the dispatch loops' layout-cache hit rate in that run
	// (hits / (hits+misses)). In metadata mode it is the offset cache's
	// own hit rate; the stateless arm reads its small layout table.
	ICHitPct float64
}

// ablationConfigs enumerates the DESIGN.md §4 variants. The offset
// cache and layout dedup are the paper's two explicit optimizations
// (§V.B); the copy re-randomization switch is called out in §IV.A.2;
// dummy count and cache-line mode are the randomization knobs.
func ablationConfigs(seed int64) []struct {
	name string
	cfg  core.Config
} {
	mk := func(mod func(*core.Config)) core.Config {
		c := core.DefaultConfig(seed)
		mod(&c)
		return c
	}
	return []struct {
		name string
		cfg  core.Config
	}{
		{"default", mk(func(c *core.Config) {})},
		{"no-cache", mk(func(c *core.Config) { c.CacheSize = -1 })},
		{"no-copy-rerand", mk(func(c *core.Config) { c.RerandomizeOnCopy = false })},
		{"no-dummies", mk(func(c *core.Config) {
			c.Layout.MinDummies, c.Layout.MaxDummies = 0, 0
			c.Layout.BoobyTraps = false
		})},
		{"max-dummies", mk(func(c *core.Config) {
			c.Layout.MinDummies, c.Layout.MaxDummies = 3, 4
		})},
		{"cacheline-mode", mk(func(c *core.Config) { c.Layout.Mode = layout.ModeCacheLine })},
		// Layout-resolution ablation (DESIGN.md §12): SPAM-style keyed
		// derivation instead of the metadata table. The interesting
		// columns are MetaProbes (identically 0 — no cache needed) and
		// MetaBytesPerLive (identically 0), traded against UAF detection.
		{"stateless", mk(func(c *core.Config) { c.LayoutMode = core.LayoutModeStateless })},
	}
}

// Ablation measures the overhead of each configuration variant on the
// member-access-bound (mcf), allocation-bound (sjeng) and copy-bound
// (h264ref) apps — the three profiles that exercise the three ablatable
// mechanisms. The config × app grid is flattened over the worker pool;
// all reps of one cell stay on one worker.
func Ablation(reps int, seed int64) ([]AblationRow, error) {
	apps := []string{"429.mcf", "458.sjeng", "464.h264ref"}
	cfgs := ablationConfigs(seed)
	type cell struct {
		cfgName string
		cfg     core.Config
		app     string
	}
	var cells []cell
	for _, cfgEntry := range cfgs {
		for _, name := range apps {
			cells = append(cells, cell{cfgEntry.name, cfgEntry.cfg, name})
		}
	}
	rows := make([]AblationRow, len(cells))
	err := forEach(len(cells), func(i int) error {
		c := cells[i]
		w, err := workload.ByName(c.app)
		if err != nil {
			return err
		}
		sp := Span(c.cfgName+"/"+c.app, "ablation")
		defer sp.End()
		base, polar, rt, perf, err := measureWorkload(w, reps, TaskSeed(seed, "ablation/"+c.cfgName+"/"+c.app), c.cfg)
		if err != nil {
			return fmt.Errorf("%s/%s: %w", c.cfgName, c.app, err)
		}
		row := AblationRow{
			Config:          c.cfgName,
			App:             c.app,
			OverheadPct:     overheadPct(base, polar),
			FusedDispatches: perf.FusedDispatches,
			ICHitPct:        100 * perf.HitRate(),
		}
		if rt != nil {
			st := rt.Stats()
			if total := st.CacheHits + st.CacheMisses; total > 0 {
				row.CacheHitPct = 100 * float64(st.CacheHits) / float64(total)
			}
			row.MetaProbes = st.MetaProbes
			row.MetaBytesPerLive = rt.MetadataBytesPerLiveObject()
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// RenderAblation renders the ablation grid.
func RenderAblation(rows []AblationRow) string {
	var b strings.Builder
	b.WriteString("Ablation: overhead by runtime configuration (DESIGN.md §4)\n")
	b.WriteString("metadata columns from one representative hardened run per cell;\n")
	b.WriteString("the stateless arm shows 0 probes / 0 bytes — no cache needed\n")
	b.WriteString(fmt.Sprintf("%-16s %-14s %9s %9s %12s %10s %10s %8s\n",
		"config", "app", "ovhd%", "cache-hit%", "meta-probes", "metaB/obj", "fused", "ic-hit%"))
	for _, r := range rows {
		b.WriteString(fmt.Sprintf("%-16s %-14s %8.1f%% %9.1f%% %12d %10.1f %10d %7.1f%%\n",
			r.Config, r.App, r.OverheadPct, r.CacheHitPct, r.MetaProbes, r.MetaBytesPerLive,
			r.FusedDispatches, r.ICHitPct))
	}
	return b.String()
}
