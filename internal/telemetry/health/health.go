// Package health derives a live health verdict from the telemetry
// event stream: per-class effective layout entropy, cache hit rates,
// and two anomaly detectors aimed at the attacker behaviours the paper
// argues POLaR forces (§III, §VII).
//
//   - Offset-probe scan: per-allocation randomization turns member
//     offsets into secrets, so an attacker reduced to guessing (the
//     heap-layout-as-search-problem framing of Heelan et al.,
//     arXiv 1804.08470) produces a burst of violations at *distinct*
//     member offsets within one class. Benign bugs repeat one offset;
//     a scan walks many.
//   - Entropy depletion: a class whose live objects collapse onto very
//     few distinct layouts has lost the diversity the defense depends
//     on (spray pressure, tiny classes, or a misconfigured generator).
//
// The monitor is a bus sink like any other: attach it and every verdict
// derives deterministically from the event sequence — same seed, same
// report. Off by default; costs nothing unless attached.
package health

import (
	"context"
	"fmt"
	"log/slog"
	"math"
	"sort"
	"sync"

	"polar/internal/telemetry"
)

// Status is the overall health verdict.
type Status int

// Verdicts, ordered by severity.
const (
	StatusOK Status = iota
	StatusDegraded
	StatusCritical
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "OK"
	case StatusDegraded:
		return "DEGRADED"
	case StatusCritical:
		return "CRITICAL"
	default:
		return "?"
	}
}

// Detector thresholds.
const (
	// scanMinOffsets / scanMinViolations: a class must accumulate this
	// many violations touching this many distinct member offsets before
	// the offset-probe-scan alert latches. Three distinct offsets is
	// already well past what a single recurring bug produces.
	scanMinOffsets    = 3
	scanMinViolations = 3
	// depletionMinAllocs / depletionMinLive / depletionMaxLayouts: a
	// class with a real allocation history whose live population sits on
	// almost no distinct layouts has lost its diversity.
	depletionMinAllocs  = 16
	depletionMinLive    = 8
	depletionMaxLayouts = 2
	// recomputeEvery bounds how stale the cached verdict can get between
	// violations (violations always recompute).
	recomputeEvery = 256
)

// classState accumulates per-class observations.
type classState struct {
	name         string
	allocs       uint64
	frees        uint64
	violations   uint64
	liveLayouts  map[uint64]uint64 // layout hash -> live object count
	layoutsSeen  map[uint64]bool   // all-time distinct layouts
	probeOffsets map[int]bool      // distinct member offsets with violations
	scanAlert    bool              // latched
}

// Monitor is the health evaluator. It implements telemetry.Sink.
// Safe for concurrent use.
type Monitor struct {
	mu      sync.Mutex
	classes map[uint64]*classState
	// objects maps live object bases to their (class, layout) so a
	// re-randomization event (olr_memcpy adoption or a stateless epoch
	// rekey) can move the object between layout populations — without
	// it, liveLayouts would keep counting the outgoing layout forever.
	objects    map[uint64]objIdentity
	hits       uint64
	misses     uint64
	violations uint64
	events     uint64
	status     Status
	reasons    []string
	log        *slog.Logger
	attached   bool
}

// objIdentity is one live object's current class and layout identity.
type objIdentity struct {
	class  uint64
	layout uint64
}

// NewMonitor returns an idle monitor. log, when non-nil, receives a
// structured record on every health-status transition.
func NewMonitor(log *slog.Logger) *Monitor {
	return &Monitor{
		classes: make(map[uint64]*classState),
		objects: make(map[uint64]objIdentity),
		log:     log,
	}
}

// AttachOnce subscribes the monitor to the bus exactly once.
func (m *Monitor) AttachOnce(bus *telemetry.Bus) {
	if bus == nil {
		return
	}
	m.mu.Lock()
	already := m.attached
	m.attached = true
	m.mu.Unlock()
	if !already {
		bus.Attach(m)
	}
}

func (m *Monitor) class(hash uint64, name string) *classState {
	cs, ok := m.classes[hash]
	if !ok {
		cs = &classState{
			liveLayouts:  make(map[uint64]uint64),
			layoutsSeen:  make(map[uint64]bool),
			probeOffsets: make(map[int]bool),
		}
		m.classes[hash] = cs
	}
	if cs.name == "" && name != "" {
		cs.name = name
	}
	return cs
}

// Event implements telemetry.Sink.
func (m *Monitor) Event(e telemetry.Event) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.events++
	switch e.Kind {
	case telemetry.EvAlloc:
		if e.Class == 0 {
			break // VM raw alloc; layout monitoring applies to tracked classes
		}
		cs := m.class(e.Class, e.Detail)
		cs.allocs++
		if e.Layout != 0 {
			cs.liveLayouts[e.Layout]++
			cs.layoutsSeen[e.Layout] = true
			m.objects[e.Addr] = objIdentity{class: e.Class, layout: e.Layout}
		}
	case telemetry.EvFree:
		if e.Class == 0 {
			break
		}
		cs := m.class(e.Class, "")
		cs.frees++
		if e.Layout != 0 && cs.liveLayouts[e.Layout] > 0 {
			if cs.liveLayouts[e.Layout]--; cs.liveLayouts[e.Layout] == 0 {
				delete(cs.liveLayouts, e.Layout)
			}
		}
		delete(m.objects, e.Addr)
	case telemetry.EvMemcpyRerand:
		// The object at e.Addr now lives under a new layout (memcpy
		// adoption of an untracked chunk, or a stateless epoch rekey):
		// retire its previous layout identity and count the new one, so
		// entropy reflects the *effective* layouts, not registration
		// history.
		if e.Class == 0 || e.Layout == 0 {
			break
		}
		if prev, ok := m.objects[e.Addr]; ok && prev.layout != 0 {
			pcs := m.class(prev.class, "")
			if pcs.liveLayouts[prev.layout] > 0 {
				if pcs.liveLayouts[prev.layout]--; pcs.liveLayouts[prev.layout] == 0 {
					delete(pcs.liveLayouts, prev.layout)
				}
			}
		}
		cs := m.class(e.Class, e.Detail)
		cs.liveLayouts[e.Layout]++
		cs.layoutsSeen[e.Layout] = true
		m.objects[e.Addr] = objIdentity{class: e.Class, layout: e.Layout}
	case telemetry.EvFieldHit:
		m.hits++
	case telemetry.EvFieldMiss:
		m.misses++
	case telemetry.EvViolation:
		m.violations++
		if e.Class != 0 {
			cs := m.class(e.Class, "")
			cs.violations++
			if e.Field >= 0 {
				cs.probeOffsets[e.Field] = true
			}
			if !cs.scanAlert && cs.violations >= scanMinViolations && len(cs.probeOffsets) >= scanMinOffsets {
				cs.scanAlert = true
			}
		}
		m.recomputeLocked()
		return
	}
	if m.events%recomputeEvery == 0 {
		m.recomputeLocked()
	}
}

// entropyBits computes the Shannon entropy (bits) of the live layout
// population.
func entropyBits(live map[uint64]uint64) float64 {
	var total float64
	for _, n := range live {
		total += float64(n)
	}
	if total == 0 {
		return 0
	}
	// Summed in layout-hash order: map order would make the last bits
	// of the report differ between identical runs.
	layouts := make([]uint64, 0, len(live))
	for l := range live {
		layouts = append(layouts, l)
	}
	sort.Slice(layouts, func(i, j int) bool { return layouts[i] < layouts[j] })
	var h float64
	for _, l := range layouts {
		p := float64(live[l]) / total
		h -= p * math.Log2(p)
	}
	return h
}

// sortedHashes returns class hashes ordered by (name, hash) so reports
// and reasons are deterministic.
func (m *Monitor) sortedHashes() []uint64 {
	hashes := make([]uint64, 0, len(m.classes))
	for h := range m.classes {
		hashes = append(hashes, h)
	}
	sort.Slice(hashes, func(i, j int) bool {
		a, b := m.classes[hashes[i]], m.classes[hashes[j]]
		if a.name != b.name {
			return a.name < b.name
		}
		return hashes[i] < hashes[j]
	})
	return hashes
}

func classLabel(hash uint64, cs *classState) string {
	if cs.name != "" {
		return cs.name
	}
	return fmt.Sprintf("hash %#x", hash)
}

// recomputeLocked re-derives the verdict and logs transitions. Caller
// holds m.mu.
func (m *Monitor) recomputeLocked() {
	status := StatusOK
	var reasons []string
	for _, hash := range m.sortedHashes() {
		cs := m.classes[hash]
		if cs.scanAlert {
			status = StatusCritical
			offs := make([]int, 0, len(cs.probeOffsets))
			for o := range cs.probeOffsets {
				offs = append(offs, o)
			}
			sort.Ints(offs)
			reasons = append(reasons, fmt.Sprintf(
				"offset-probe-scan: class %s hit %d violations across %d distinct member offsets %v",
				classLabel(hash, cs), cs.violations, len(offs), offs))
		}
		live := cs.allocs - cs.frees
		if cs.allocs >= depletionMinAllocs && live >= depletionMinLive && len(cs.liveLayouts) <= depletionMaxLayouts {
			if status < StatusDegraded {
				status = StatusDegraded
			}
			reasons = append(reasons, fmt.Sprintf(
				"entropy-depletion: class %s has %d distinct live layouts across %d live objects",
				classLabel(hash, cs), len(cs.liveLayouts), live))
		}
	}
	if m.violations > 0 && status == StatusOK {
		status = StatusDegraded
		reasons = append(reasons, fmt.Sprintf("violations: %d detections recorded", m.violations))
	}
	if status != m.status && m.log != nil {
		m.log.LogAttrs(context.Background(), slog.LevelWarn, "polar health transition",
			slog.String("from", m.status.String()),
			slog.String("to", status.String()),
			slog.Any("reasons", reasons),
		)
	}
	m.status = status
	m.reasons = reasons
}

// ClassReport is the per-class section of a health report.
type ClassReport struct {
	Class                string  `json:"class"`
	ClassHash            uint64  `json:"class_hash"`
	Allocs               uint64  `json:"allocs"`
	Frees                uint64  `json:"frees"`
	Live                 uint64  `json:"live"`
	DistinctLiveLayouts  int     `json:"distinct_live_layouts"`
	DistinctLayoutsSeen  int     `json:"distinct_layouts_seen"`
	EffectiveEntropyBits float64 `json:"effective_entropy_bits"`
	Violations           uint64  `json:"violations"`
	ProbedOffsets        []int   `json:"probed_offsets,omitempty"`
	ScanAlert            bool    `json:"scan_alert,omitempty"`
}

// Report is the full health verdict.
type Report struct {
	Status       string        `json:"status"`
	Reasons      []string      `json:"reasons"`
	Violations   uint64        `json:"violations"`
	CacheHits    uint64        `json:"cache_hits"`
	CacheMisses  uint64        `json:"cache_misses"`
	CacheHitRate float64       `json:"cache_hit_rate"`
	Classes      []ClassReport `json:"classes"`
}

// Report recomputes and returns the current verdict. Deterministic:
// classes sort by (name, hash) and reasons follow that order.
func (m *Monitor) Report() Report {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.recomputeLocked()
	rep := Report{
		Status:      m.status.String(),
		Reasons:     append([]string(nil), m.reasons...),
		Violations:  m.violations,
		CacheHits:   m.hits,
		CacheMisses: m.misses,
	}
	if rep.Reasons == nil {
		rep.Reasons = []string{}
	}
	if total := m.hits + m.misses; total > 0 {
		rep.CacheHitRate = float64(m.hits) / float64(total)
	}
	for _, hash := range m.sortedHashes() {
		cs := m.classes[hash]
		cr := ClassReport{
			Class:                classLabel(hash, cs),
			ClassHash:            hash,
			Allocs:               cs.allocs,
			Frees:                cs.frees,
			Live:                 cs.allocs - cs.frees,
			DistinctLiveLayouts:  len(cs.liveLayouts),
			DistinctLayoutsSeen:  len(cs.layoutsSeen),
			EffectiveEntropyBits: entropyBits(cs.liveLayouts),
			Violations:           cs.violations,
			ScanAlert:            cs.scanAlert,
		}
		for o := range cs.probeOffsets {
			cr.ProbedOffsets = append(cr.ProbedOffsets, o)
		}
		sort.Ints(cr.ProbedOffsets)
		rep.Classes = append(rep.Classes, cr)
	}
	return rep
}

// Status returns the current verdict without building a full report.
func (m *Monitor) Status() Status {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.recomputeLocked()
	return m.status
}
