// Package exectrace records a deterministic, full-fidelity execution
// trace: every allocation, free, olr_getptr resolution, block entry,
// call, fuel checkpoint and violation, in program order, as compact
// length-prefixed binary records (schema polar-exectrace/v1).
//
// The format deliberately carries no wall-clock timestamps and no
// host-dependent state: the same module run under the same seed
// produces a byte-identical trace, which is what makes `polartrace
// diff` a divergence localizer — the first differing record IS the
// first differing runtime event, whether the two traces came from the
// bytecode engine vs. the test-only reference interpreter, from two
// -parallel widths, or from two builds of the same module.
//
// # Wire format
//
// A trace is:
//
//	magic   8 bytes  "POLARXT1"
//	schema  uvarint length + bytes ("polar-exectrace/v1")
//	records uvarint payload length + payload, repeated
//
// Every payload starts with one kind byte; all integer fields are
// unsigned varints (encoding/binary uvarint). Strings never appear
// inline in event records: a recString record (id, bytes) defines each
// string the first time it is interned, and events reference strings
// by id. Id 0 is reserved for "no string". Interning is
// first-use-ordered, so two runs that intern the same strings in the
// same order produce identical tables — part of the determinism
// contract, and the reason per-VM site tables hand out ids through the
// Writer rather than locally.
//
// # Concurrency
//
// A Writer is intentionally lock-free and owned by one goroutine at a
// time, exactly like vm.VM: bus delivery is synchronous on the VM
// goroutine, and parallel harnesses give every task its own Writer
// (see evalrun.WriteWorkloadTraces). A mutex on the block/call hot
// path would cost more than the entire <5% tracing budget.
package exectrace

import (
	"encoding/binary"
	"io"

	"polar/internal/telemetry"
)

// Magic opens every trace file.
const Magic = "POLARXT1"

// Schema identifies the record format version.
const Schema = "polar-exectrace/v1"

// Record kinds. recString and recEOF are structural; the rest are
// events. Keep the reader's decode table in sync.
const (
	recString    byte = 1  // id, bytes           — string-table definition
	recAlloc     byte = 2  // site, class, base, size, layout, detail
	recFree      byte = 3  // site, class, base, layout
	recGetptr    byte = 4  // site, class, field+1, base, off, res
	recBlock     byte = 5  // site                — block entry
	recCall      byte = 6  // fn                  — function entry
	recFuel      byte = 7  // remaining, detail   — run boundary checkpoint
	recViolation byte = 8  // detail, addr, class, layout, field+1, site
	recLayoutGen byte = 9  // class, layout, size, detail
	recRerand    byte = 10 // addr, size, class, layout, detail — memcpy re-randomization
	recEvent     byte = 11 // evkind, addr, size, class, layout, field+1, label, site, detail
	recEOF       byte = 12 // records, dropped    — footer, written by Close
)

// Resolution says how an olr_getptr call found its offset; the getptr
// event carries it (telemetry.Resolution holds the values and the
// hit/miss and probe-bucket mapping).
type Resolution = telemetry.Resolution

// Resolution values, as recorded in getptr records.
const (
	ResCacheHit  = telemetry.ResCacheHit
	ResMetadata  = telemetry.ResMetadata
	ResStatic    = telemetry.ResStatic
	ResStateless = telemetry.ResStateless
)

// flushThreshold bounds buffered bytes between Write calls to the
// underlying stream. 32 KiB amortizes syscalls without letting a long
// run hold megabytes of pending trace.
const flushThreshold = 32 << 10

// Writer streams trace records to an io.Writer. Not safe for
// concurrent use (see the package comment); the telemetry.Sink method
// is only ever invoked synchronously from the traced goroutine.
type Writer struct {
	w       io.Writer
	buf     []byte
	strings map[string]uint32
	nextStr uint32
	// live short-circuits the hot path: true while the writer is
	// unbounded, open and error-free. Capped writers keep it false and
	// check the cap on every record.
	live    bool
	records uint64 // event records written (strings and EOF excluded)
	dropped uint64 // event records discarded (cap reached or sticky error)
	max     uint64 // 0 = unbounded
	err     error
	closed  bool
}

// NewWriter returns an unbounded trace writer over w.
func NewWriter(w io.Writer) *Writer { return NewWriterLimit(w, 0) }

// NewWriterLimit returns a writer that stops recording events after
// maxRecords (0 = unbounded) and counts the overflow in Dropped. The
// header, string table and footer are exempt, so a capped trace still
// parses and still reports exactly how much it lost.
func NewWriterLimit(w io.Writer, maxRecords uint64) *Writer {
	xw := &Writer{
		w:       w,
		buf:     make([]byte, 0, flushThreshold+512),
		strings: make(map[string]uint32),
		nextStr: 1,
		max:     maxRecords,
		live:    maxRecords == 0,
	}
	xw.buf = append(xw.buf, Magic...)
	xw.buf = binary.AppendUvarint(xw.buf, uint64(len(Schema)))
	xw.buf = append(xw.buf, Schema...)
	return xw
}

// Intern returns the id for s, defining it in the trace's string table
// on first use. The empty string is id 0 and is never defined.
func (w *Writer) Intern(s string) uint32 {
	if s == "" {
		return 0
	}
	if id, ok := w.strings[s]; ok {
		return id
	}
	id := w.nextStr
	w.nextStr++
	w.strings[s] = id
	if w.err == nil && !w.closed {
		// String definitions bypass the record cap: a capped trace must
		// still resolve every id the surviving records reference.
		w.buf = binary.AppendUvarint(w.buf, uint64(1+uvarintLen(uint64(id))+uvarintLen(uint64(len(s)))+len(s)))
		w.buf = append(w.buf, recString)
		w.buf = binary.AppendUvarint(w.buf, uint64(id))
		w.buf = binary.AppendUvarint(w.buf, uint64(len(s)))
		w.buf = append(w.buf, s...)
		if len(w.buf) >= flushThreshold {
			w.flush()
		}
	}
	return id
}

// uvarintLen returns the encoded size of v.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// emit frames and buffers one event payload, honoring the cap and the
// sticky error.
func (w *Writer) emit(payload []byte) {
	if !w.live && (w.err != nil || w.closed || (w.max != 0 && w.records >= w.max)) {
		w.dropped++
		return
	}
	w.records++
	w.buf = binary.AppendUvarint(w.buf, uint64(len(payload)))
	w.buf = append(w.buf, payload...)
	if len(w.buf) >= flushThreshold {
		w.flush()
	}
}

func (w *Writer) flush() {
	if w.err != nil || len(w.buf) == 0 {
		return
	}
	_, err := w.w.Write(w.buf)
	w.buf = w.buf[:0]
	if err != nil {
		w.err = err
		w.live = false
	}
}

// Block records entry into a basic block. site is an id from Intern
// ("@fn.block"). This is the hottest record by far (one per
// interpreted block); interpreter loops precompute BlockFrame per
// block and feed FastAppend4/BlockFrameSlow directly, which is the
// same encoding this method produces.
func (w *Writer) Block(site uint32) {
	f := BlockFrame(site)
	if !w.FastAppend4(f) {
		w.BlockFrameSlow(f)
	}
}

// BlockFrame packs the complete wire frame of a block record — length
// byte 3, kind byte, and a fixed-width two-byte varint of site — into
// a uint32 (bytes in stream order, low byte first). The two-byte
// varint is non-minimal for site < 128; uvarint readers accept it, and
// the fixed width is what lets interpreter loops precompute one word
// per block and append it with no encoder on the hot path. Sites that
// don't fit 14 bits (which would take >16K interned strings) return a
// tagged fallback value instead: frame words always have low bits 11
// (length 3), the fallback site<<2 has low bits 00, and
// FastAppend4/BlockFrameSlow dispatch on that tag.
func BlockFrame(site uint32) uint32 {
	if site < 1<<14 {
		return 3 | uint32(recBlock)<<8 | (site&0x7f|0x80)<<16 | (site>>7)<<24
	}
	return site << 2
}

// FastAppend4 appends a precomputed BlockFrame word in the common case
// — live writer, real frame word, room in the buffer — and reports
// whether it did. Callers must invoke BlockFrameSlow(f) when it
// returns false. Deliberately tiny so it inlines into interpreter
// dispatch loops: this one call is most of the tracing overhead
// budget.
func (w *Writer) FastAppend4(f uint32) bool {
	if !w.live || f&3 != 3 || len(w.buf)+4 > flushThreshold {
		return false
	}
	w.records++
	w.buf = append(w.buf, byte(f), byte(f>>8), byte(f>>16), byte(f>>24))
	return true
}

// BlockFrameSlow is the cold path behind FastAppend4: it flushes a
// full buffer, routes capped/errored writers through emit (which
// counts drops), and decodes the site<<2 fallback tag for block sites
// too large to pack.
func (w *Writer) BlockFrameSlow(f uint32) {
	if f&3 != 3 {
		w.blockSlow(f >> 2)
		return
	}
	if !w.live {
		w.emit([]byte{byte(f >> 8), byte(f >> 16), byte(f >> 24)})
		return
	}
	w.flush()
	if !w.FastAppend4(f) {
		w.emit([]byte{byte(f >> 8), byte(f >> 16), byte(f >> 24)})
	}
}

func (w *Writer) blockSlow(site uint32) {
	var p [1 + binary.MaxVarintLen32]byte
	n := 1
	p[0] = recBlock
	n += binary.PutUvarint(p[n:], uint64(site))
	w.emit(p[:n])
}

// Call records entry into a function. fn is an interned function name.
func (w *Writer) Call(fn uint32) {
	var p [1 + binary.MaxVarintLen32]byte
	n := 1
	p[0] = recCall
	n += binary.PutUvarint(p[n:], uint64(fn))
	w.emit(p[:n])
}

// alloc records an allocation: raw VM allocs (class 0) and hardened
// olr_malloc allocs (class hash + layout generation) share the record.
func (w *Writer) alloc(site uint32, class, base uint64, size int, layout uint64, detail uint32) {
	var p [1 + 6*binary.MaxVarintLen64]byte
	n := 1
	p[0] = recAlloc
	n += binary.PutUvarint(p[n:], uint64(site))
	n += binary.PutUvarint(p[n:], class)
	n += binary.PutUvarint(p[n:], base)
	n += binary.PutUvarint(p[n:], uint64(int64(size)))
	n += binary.PutUvarint(p[n:], layout)
	n += binary.PutUvarint(p[n:], uint64(detail))
	w.emit(p[:n])
}

// free records a deallocation.
func (w *Writer) free(site uint32, class, base, layout uint64) {
	var p [1 + 4*binary.MaxVarintLen64]byte
	n := 1
	p[0] = recFree
	n += binary.PutUvarint(p[n:], uint64(site))
	n += binary.PutUvarint(p[n:], class)
	n += binary.PutUvarint(p[n:], base)
	n += binary.PutUvarint(p[n:], layout)
	w.emit(p[:n])
}

// getptr records one olr_getptr resolution: which member of which
// class, against which base, what offset came back, and through which
// path (cache hit / metadata / static fallback). field is the member
// index (-1 for none — encoded +1 so it stays unsigned).
func (w *Writer) getptr(site uint32, class uint64, field int, base uint64, off int, res Resolution) {
	var p [1 + 6*binary.MaxVarintLen64]byte
	n := 1
	p[0] = recGetptr
	n += binary.PutUvarint(p[n:], uint64(site))
	n += binary.PutUvarint(p[n:], class)
	n += binary.PutUvarint(p[n:], uint64(int64(field)+1))
	n += binary.PutUvarint(p[n:], base)
	n += binary.PutUvarint(p[n:], uint64(int64(off)))
	n += binary.PutUvarint(p[n:], uint64(res))
	w.emit(p[:n])
}

// Event implements telemetry.Sink: every record other than blocks and
// calls comes from a bus event. Alloc and free records serve both the
// runtime's olr_malloc/olr_free and the VM's raw allocations (class 0);
// getptr records come from the hit and miss events, which carry the
// resolved offset and the resolution.
func (w *Writer) Event(e telemetry.Event) {
	switch e.Kind {
	case telemetry.EvAlloc:
		w.alloc(w.Intern(e.Site), e.Class, e.Addr, e.Size, e.Layout, w.Intern(e.Detail))
	case telemetry.EvFree:
		w.free(w.Intern(e.Site), e.Class, e.Addr, e.Layout)
	case telemetry.EvFieldHit, telemetry.EvFieldMiss:
		w.getptr(w.Intern(e.Site), e.Class, e.Field, e.Addr, int(e.Off), e.Res)
	case telemetry.EvLayoutGen:
		detail := w.Intern(e.Detail)
		var p [1 + 4*binary.MaxVarintLen64]byte
		n := 1
		p[0] = recLayoutGen
		n += binary.PutUvarint(p[n:], e.Class)
		n += binary.PutUvarint(p[n:], e.Layout)
		n += binary.PutUvarint(p[n:], uint64(int64(e.Size)))
		n += binary.PutUvarint(p[n:], uint64(detail))
		w.emit(p[:n])
	case telemetry.EvMemcpyRerand:
		detail := w.Intern(e.Detail)
		var p [1 + 5*binary.MaxVarintLen64]byte
		n := 1
		p[0] = recRerand
		n += binary.PutUvarint(p[n:], e.Addr)
		n += binary.PutUvarint(p[n:], uint64(int64(e.Size)))
		n += binary.PutUvarint(p[n:], e.Class)
		n += binary.PutUvarint(p[n:], e.Layout)
		n += binary.PutUvarint(p[n:], uint64(detail))
		w.emit(p[:n])
	case telemetry.EvViolation:
		detail := w.Intern(e.Detail)
		site := w.Intern(e.Site)
		var p [1 + 6*binary.MaxVarintLen64]byte
		n := 1
		p[0] = recViolation
		n += binary.PutUvarint(p[n:], uint64(detail))
		n += binary.PutUvarint(p[n:], e.Addr)
		n += binary.PutUvarint(p[n:], e.Class)
		n += binary.PutUvarint(p[n:], e.Layout)
		n += binary.PutUvarint(p[n:], uint64(int64(e.Field)+1))
		n += binary.PutUvarint(p[n:], uint64(site))
		w.emit(p[:n])
	case telemetry.EvFuelCheckpoint:
		detail := w.Intern(e.Detail)
		var p [1 + 2*binary.MaxVarintLen64]byte
		n := 1
		p[0] = recFuel
		n += binary.PutUvarint(p[n:], uint64(int64(e.Size)))
		n += binary.PutUvarint(p[n:], uint64(detail))
		w.emit(p[:n])
	default:
		// Generic carrier for kinds the format has no dedicated record
		// for (taint-union, corpus-add, and any kind added later): new
		// emitters are traced without a format revision.
		site := w.Intern(e.Site)
		detail := w.Intern(e.Detail)
		var p [1 + 9*binary.MaxVarintLen64]byte
		n := 1
		p[0] = recEvent
		n += binary.PutUvarint(p[n:], uint64(e.Kind))
		n += binary.PutUvarint(p[n:], e.Addr)
		n += binary.PutUvarint(p[n:], uint64(int64(e.Size)))
		n += binary.PutUvarint(p[n:], e.Class)
		n += binary.PutUvarint(p[n:], e.Layout)
		n += binary.PutUvarint(p[n:], uint64(int64(e.Field)+1))
		n += binary.PutUvarint(p[n:], e.Label)
		n += binary.PutUvarint(p[n:], uint64(site))
		n += binary.PutUvarint(p[n:], uint64(detail))
		w.emit(p[:n])
	}
}

// Records reports how many event records were written so far.
func (w *Writer) Records() uint64 { return w.records }

// Dropped reports how many event records were discarded (cap reached
// or write error).
func (w *Writer) Dropped() uint64 { return w.dropped }

// Err returns the sticky write error, if any.
func (w *Writer) Err() error { return w.err }

// Publish snapshots the writer's own counters into a metrics registry
// so the OpenMetrics exposition can surface trace loss
// (polar_exectrace_records_total / polar_exectrace_dropped_total).
func (w *Writer) Publish(reg *telemetry.Registry) {
	if w == nil || reg == nil {
		return
	}
	reg.Counter("exectrace.records").Set(w.records)
	reg.Counter("exectrace.dropped").Set(w.dropped)
}

// Close writes the footer (event count + dropped count), flushes, and
// makes further records no-ops. Safe to call more than once; only the
// first call writes the footer. Close never closes the underlying
// writer — the caller owns the file.
func (w *Writer) Close() error {
	if w.closed {
		return w.err
	}
	w.closed = true
	w.live = false
	if w.err == nil {
		var p [1 + 2*binary.MaxVarintLen64]byte
		n := 1
		p[0] = recEOF
		n += binary.PutUvarint(p[n:], w.records)
		n += binary.PutUvarint(p[n:], w.dropped)
		w.buf = binary.AppendUvarint(w.buf, uint64(n))
		w.buf = append(w.buf, p[:n]...)
	}
	w.flush()
	return w.err
}
