// Package taint implements the TaintClass framework of POLaR (§IV.B):
// the per-class report of Tables I and IV, and the runner that fills it
// from taint runs of the VM.
//
// The DataFlowSanitizer analogue itself lives in the VM (vm.WithTaint):
// it labels every byte the program reads from its untrusted input (the
// input_* builtins model the instrumented fread / MapViewOfFile entry
// points) and propagates the labels inline through loads, stores,
// arithmetic, pointer derivation and memory copies — DFSan's
// propagation rules. A label is one bit: input-dependent or not. When
// tainted bytes land inside a heap object of known class, the VM
// reports the class and the byte range, and the Report records the
// class and the member fields the range covers as input-dependent. A
// coarse control-taint flag per frame marks allocations and frees that
// execute under a tainted branch condition, approximating "life-cycle
// affected by untrusted input".
package taint

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"polar/internal/ir"
	"polar/internal/vm"
)

// FieldTaint describes one tainted member of a class.
type FieldTaint struct {
	Index     int
	Name      string
	IsPointer bool
}

// ObjectReport is the TaintClass verdict for one class: whether its
// contents and/or life-cycle (allocation, deallocation) are affected by
// untrusted input (§IV.B.1).
type ObjectReport struct {
	Class          string
	ContentTainted bool
	AllocTainted   bool
	FreeTainted    bool
	Fields         map[int]*FieldTaint
}

// Tainted reports whether the class qualifies for POLaR randomization.
func (o *ObjectReport) Tainted() bool {
	return o.ContentTainted || o.AllocTainted || o.FreeTainted
}

// SortedFields returns the tainted fields ordered by index.
func (o *ObjectReport) SortedFields() []*FieldTaint {
	out := make([]*FieldTaint, 0, len(o.Fields))
	for _, f := range o.Fields {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out
}

// Report accumulates per-class taint verdicts across one or many
// executions (the fuzz driver merges per-input reports into one). It is
// the vm.TaintSink of a taint run. Safe for concurrent use.
type Report struct {
	mu      sync.Mutex
	objects map[string]*ObjectReport
}

// NewReport returns an empty report.
func NewReport() *Report {
	return &Report{objects: make(map[string]*ObjectReport)}
}

func (r *Report) obj(class string) *ObjectReport {
	o, ok := r.objects[class]
	if !ok {
		o = &ObjectReport{Class: class, Fields: make(map[int]*FieldTaint)}
		r.objects[class] = o
	}
	return o
}

var _ vm.TaintSink = (*Report)(nil)

// Content records tainted bytes at [off, off+n) of an instance of st,
// resolving which members are covered via the static layout (the
// TaintClass build runs uninstrumented, so objects carry the compiler
// layout).
func (r *Report) Content(st *ir.StructType, off, n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	o := r.obj(st.Name)
	o.ContentTainted = true
	for i, f := range st.Fields {
		fo := st.Offset(i)
		if fo+f.Type.Size() <= off || fo >= off+n {
			continue
		}
		if _, ok := o.Fields[i]; !ok {
			_, isPtr := f.Type.(ir.PtrType)
			_, isFptr := f.Type.(ir.FuncPtrType)
			o.Fields[i] = &FieldTaint{Index: i, Name: f.Name, IsPointer: isPtr || isFptr}
		}
	}
}

// Alloc records an allocation of st under tainted control.
func (r *Report) Alloc(st *ir.StructType) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.obj(st.Name).AllocTainted = true
}

// Free records a deallocation of st under tainted control.
func (r *Report) Free(st *ir.StructType) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.obj(st.Name).FreeTainted = true
}

// Merge folds other into r (corpus union).
func (r *Report) Merge(other *Report) {
	other.mu.Lock()
	defer other.mu.Unlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, oo := range other.objects {
		o := r.obj(name)
		o.ContentTainted = o.ContentTainted || oo.ContentTainted
		o.AllocTainted = o.AllocTainted || oo.AllocTainted
		o.FreeTainted = o.FreeTainted || oo.FreeTainted
		for idx, ft := range oo.Fields {
			if _, ok := o.Fields[idx]; !ok {
				cp := *ft
				o.Fields[idx] = &cp
			}
		}
	}
}

// TaintedClasses returns the names of classes flagged for randomization,
// sorted — the "object list" TaintClass feeds to POLaR (Fig. 3).
func (r *Report) TaintedClasses() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []string
	for name, o := range r.objects {
		if o.Tainted() {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Count returns the number of tainted classes (Table I's "# of tainted
// objects" column).
func (r *Report) Count() int { return len(r.TaintedClasses()) }

// Object returns the report for one class, if present.
func (r *Report) Object(class string) (*ObjectReport, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	o, ok := r.objects[class]
	return o, ok
}

// String renders a human-readable summary.
func (r *Report) String() string {
	var b strings.Builder
	for _, name := range r.TaintedClasses() {
		o := r.objects[name]
		var why []string
		if o.ContentTainted {
			why = append(why, "content")
		}
		if o.AllocTainted {
			why = append(why, "alloc")
		}
		if o.FreeTainted {
			why = append(why, "free")
		}
		fmt.Fprintf(&b, "%-32s %-20s fields:", name, strings.Join(why, "+"))
		for _, f := range o.SortedFields() {
			kind := ""
			if f.IsPointer {
				kind = "*"
			}
			fmt.Fprintf(&b, " %s%s", f.Name, kind)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
