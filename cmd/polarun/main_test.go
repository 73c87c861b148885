package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

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

// TestHostileIRFailsTyped: the register-number and type-size programs
// fail with their typed errors before they run, where they used to kill
// the process or run with truncated sizes.
func TestHostileIRFailsTyped(t *testing.T) {
	for _, tc := range []struct {
		file string
		want error
	}{
		{"reg_huge.ir", ir.ErrTooManyRegs},
		{"size_local.ir", vm.ErrLength},
		{"size_alloc.ir", vm.ErrLength},
		{"size_elemptr.ir", vm.ErrLength},
		{"size_struct.ir", vm.ErrLength},
		{"size_wrap.ir", vm.ErrLength},
	} {
		if err := flag.CommandLine.Parse([]string{filepath.Join("../../internal/vm/testdata", tc.file)}); err != nil {
			t.Fatal(err)
		}
		if err := run(runConfig{runs: 1}); !errors.Is(err, tc.want) {
			t.Errorf("%s: run = %v, want %v", tc.file, err, tc.want)
		}
	}
}
