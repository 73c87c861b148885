package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
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
