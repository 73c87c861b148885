package evalrun

import (
	"encoding/binary"
	"hash/fnv"
	"runtime"
	"sync"
	"sync/atomic"
)

// parallelism is the experiment fan-out width (see SetParallelism).
// The harness state is package-level, matching SetTracer: configure it
// before running experiments.
var parallelism = runtime.GOMAXPROCS(0)

// SetParallelism sets how many experiment sub-steps (workloads,
// kernels, CVE cases, defenses) run concurrently. n < 1 restores the
// default, GOMAXPROCS. Width 1 runs the sub-steps one at a time, but a
// fuzz campaign or taint analysis inside one still spreads its
// executions over GOMAXPROCS goroutines; GOMAXPROCS=1 gives a fully
// serial run.
func SetParallelism(n int) {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	parallelism = n
}

// TaskSeed derives the seed one named task runs under: a hash of the
// root seed and the task's stable identifier. Every task's randomness
// is therefore a pure function of (rootSeed, taskID) — independent of
// execution order and worker assignment — which is what makes parallel
// and serial runs of the same experiment byte-identical for the
// non-timing outputs. The sign bit is cleared so derived seeds stay
// non-negative like the root seeds the flags accept.
func TaskSeed(root int64, taskID string) int64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(root))
	h.Write(b[:])
	h.Write([]byte(taskID))
	return int64(h.Sum64() &^ (1 << 63))
}

// ForEach runs fn(0..n-1) across a bounded worker pool of the given
// width (workers < 1 means GOMAXPROCS) and returns the lowest-index
// error among the tasks that ran (nil if none failed). The pool
// cancels on failure: once any task errors, workers stop claiming new
// indices — tasks already in flight finish, but an expensive grid
// doesn't keep paying for indices that can no longer matter. Each
// index executes entirely on one worker, so a task's timing
// repetitions are never split across goroutines (min-of-N stays
// valid); callers write results into slot i of a pre-sized slice, so
// collection order is deterministic regardless of completion order.
func ForEach(n, workers int, fn func(i int) error) error {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					errs[i] = err
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// forEach runs fn(0..n-1) at the package-level parallelism width (the
// experiment harness's fan-out knob; see SetParallelism).
func forEach(n int, fn func(i int) error) error {
	return ForEach(n, parallelism, fn)
}
