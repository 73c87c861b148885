package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// dupFuncs parses but defines one function name twice. The passes key
// per-function state by name, so it must be rejected before they run.
const dupFuncs = "func @()i64{\n:\nret\n}\nfunc @(i64 0,i64 0)i64{\n:\n%r0=br scan.head\nscan.head:\nbr scan.head\n}\n"

func TestLintRejectsInvalidModule(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "dup.ir")
	if err := os.WriteFile(path, []byte(dupFuncs), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run(path, "", "", filepath.Join(dir, "out.ir"), false, true)
	if err == nil || !strings.Contains(err.Error(), "duplicate function") {
		t.Fatalf("run -lint = %v, want a duplicate-function validation error", err)
	}
}
