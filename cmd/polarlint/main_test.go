package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"polar/internal/analysis"
)

// dupFuncs parses but defines one function name twice. The passes key
// per-function state by name, so it must be rejected before they run.
const dupFuncs = "func @()i64{\n:\nret\n}\nfunc @(i64 0,i64 0)i64{\n:\n%r0=br scan.head\nscan.head:\nbr scan.head\n}\n"

func TestLintFileRejectsInvalidModule(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dup.ir")
	if err := os.WriteFile(path, []byte(dupFuncs), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := lintFile(path, analysis.Options{})
	if err == nil || !strings.Contains(err.Error(), "duplicate function") {
		t.Fatalf("lintFile = %v, want a duplicate-function validation error", err)
	}
}
