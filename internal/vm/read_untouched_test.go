package vm_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"polar/internal/ir"
	"polar/internal/vm"
)

// TestReadUntouchedMemoryCreatesNoPage: reading memory that was never
// written, 8 MiB of a fresh heap chunk and a zero-filled stack slot,
// reads zeros and creates no page on either engine. A read used to
// allocate a 64 KiB page for every page it touched (129 pages here).
func TestReadUntouchedMemoryCreatesNoPage(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "read_untouched.ir"))
	if err != nil {
		t.Fatal(err)
	}
	m, err := ir.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range engines {
		v, err := vm.New(m)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.run(v)
		if err != nil || res != 0 {
			t.Fatalf("%s: run = (%d, %v), want (0, nil)", e.name, res, err)
		}
		if out := v.Output(); len(out) != 8<<20 || !bytes.Equal(out, make([]byte, 8<<20)) {
			t.Fatalf("%s: printed %d bytes, want 8 MiB of zeros", e.name, len(out))
		}
		if n := v.Mem.Pages(); n != 0 {
			t.Errorf("%s: %d pages of simulated memory after reading only untouched memory, want 0", e.name, n)
		}
	}
}
