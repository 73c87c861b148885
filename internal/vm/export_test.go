package vm

// RunReference executes @main of v on the tree-walking reference
// interpreter (reference_test.go) instead of the bytecode engine. The
// instance's state, observers and inline caches are the same either
// way, so a differential test stamps two instances from one Program
// and runs one with VM.Run and the other with RunReference.
func RunReference(v *VM, args ...int64) (int64, error) { return v.runReference("main", args) }
