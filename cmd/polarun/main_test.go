package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"polar/internal/heap"
	"polar/internal/ir"
	"polar/internal/vm"
)

// TestAbortStillWritesReports runs the use-after-free case study under
// the default abort policy: the run must fail with the violation and
// still write the -flight-dump report naming it.
func TestAbortStillWritesReports(t *testing.T) {
	dump := filepath.Join(t.TempDir(), "dump.json")
	if err := flag.CommandLine.Parse([]string{"../../examples/casestudies/uaf.ir", "16", "18367622009667840"}); err != nil {
		t.Fatal(err)
	}
	err := run(runConfig{harden: true, seed: 42, runs: 1, flightCap: 256, flightDump: dump})
	if err == nil || !strings.Contains(err.Error(), "use-after-free") {
		t.Fatalf("run = %v, want the use-after-free violation", err)
	}
	data, err := os.ReadFile(dump)
	if err != nil {
		t.Fatalf("no flight dump after the aborted run: %v", err)
	}
	if !bytes.Contains(data, []byte(`"kind": "use-after-free"`)) {
		t.Fatalf("flight dump does not name the use-after-free:\n%s", data)
	}
}

// TestHostileIRFailsTyped: the register-number, type-size, access-type
// and alloc-wrap programs fail with their typed errors, plain and
// -harden, where they used to kill the process, run with truncated
// sizes or write past a wrapped allocation. Hardened, the struct
// holding a 2.4 GB array is an olr_malloc the heap cannot hold, and an
// invalid program is the input's fault, not the instrumentation's.
func TestHostileIRFailsTyped(t *testing.T) {
	for _, tc := range []struct {
		file       string
		want, hard error
	}{
		{"reg_huge.ir", ir.ErrTooManyRegs, ir.ErrTooManyRegs},
		{"size_local.ir", vm.ErrLength, vm.ErrLength},
		{"size_alloc.ir", vm.ErrLength, vm.ErrLength},
		{"size_elemptr.ir", vm.ErrLength, vm.ErrLength},
		{"size_struct.ir", vm.ErrLength, heap.ErrOutOfMemory},
		{"size_wrap.ir", vm.ErrLength, vm.ErrLength},
		{"load_struct.ir", ir.ErrAccessType, ir.ErrAccessType},
		{"load_odd.ir", ir.ErrAccessType, ir.ErrAccessType},
		{"alloc_wrap.ir", heap.ErrOutOfMemory, heap.ErrOutOfMemory},
	} {
		if err := flag.CommandLine.Parse([]string{filepath.Join("../../internal/vm/testdata", tc.file)}); err != nil {
			t.Fatal(err)
		}
		if err := run(runConfig{runs: 1}); !errors.Is(err, tc.want) {
			t.Errorf("%s: run = %v, want %v", tc.file, err, tc.want)
		}
		if err := run(runConfig{harden: true, runs: 1}); !errors.Is(err, tc.hard) || strings.Contains(err.Error(), "produced invalid module") {
			t.Errorf("%s -harden: run = %v, want %v blamed on the input", tc.file, err, tc.hard)
		}
	}
}
