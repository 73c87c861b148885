// Package workload provides the benchmark programs of the paper's
// evaluation (§V) as IR modules: miniature applications with the
// allocation / member-access / memcpy profiles of the SPEC CPU2006 apps
// (profiles from Table III), a mini-PNG chunk parser and mini-JPEG
// marker parser standing in for libpng/libjpeg-turbo, and a
// script-runtime object model with the JavaScript benchmark kernels of
// Fig. 7 standing in for ChakraCore.
//
// These are synthetic equivalents, not the real programs (see DESIGN.md
// §1): each mini-app implements a genuine small algorithm in the same
// domain, declares the object-type inventory Table I reports for the
// real app, parses untrusted input into those objects (driving the
// TaintClass experiments) and then runs a compute core whose mix of
// object operations matches the real app's profile, so the *shape* of
// the paper's overhead results is preserved.
package workload

import (
	"fmt"

	"polar/internal/ir"
)

// Workload is one benchmark program.
type Workload struct {
	// Name as the paper reports it (e.g. "458.sjeng").
	Name string
	// Description summarizes the mini-app's algorithm.
	Description string
	// Module is the program (uninstrumented).
	Module *ir.Module
	// Input is the canonical untrusted input.
	Input []byte
	// Args are passed to @main.
	Args []int64
	// ExpectedTainted is the exact set of class names TaintClass should
	// report (the Table I object list for this app).
	ExpectedTainted []string
	// PaperTaintedCount is Table I's "# of tainted objects" column.
	PaperTaintedCount int
}

// Validate builds and validates the module (panics are construction
// bugs; this returns errors for tests).
func (w *Workload) Validate() error {
	if err := ir.Validate(w.Module); err != nil {
		return fmt.Errorf("workload %s: %w", w.Name, err)
	}
	return nil
}

// SPEC returns the twelve SPEC CPU2006 mini-apps in Table I order.
func SPEC() []*Workload {
	return []*Workload{
		Perlbench(),
		Bzip2(),
		GCC(),
		MCF(),
		Gobmk(),
		Hmmer(),
		Sjeng(),
		Libquantum(),
		H264ref(),
		Omnetpp(),
		Astar(),
		Xalancbmk(),
	}
}

// SPECFig6 returns the eleven apps of Fig. 6 (libquantum is excluded
// there because TaintClass marks no objects — nothing to randomize).
func SPECFig6() []*Workload {
	var out []*Workload
	for _, w := range SPEC() {
		if w.Name != "462.libquantum" {
			out = append(out, w)
		}
	}
	return out
}

// ByName returns a workload from the full registry (SPEC, libpng,
// libjpeg, chakra-model) by its paper name.
func ByName(name string) (*Workload, error) {
	for _, w := range All() {
		if w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("workload: unknown workload %q", name)
}

// All returns every non-JS workload.
func All() []*Workload {
	out := SPEC()
	out = append(out, LibPNG(), LibJPEG(), ChakraModel())
	return out
}
