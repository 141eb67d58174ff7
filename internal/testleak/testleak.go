// Package testleak detects goroutines leaked by a test: Check
// snapshots the live goroutines when called and, at cleanup, fails the
// test if goroutines born since are still running.
//
// It is how the repo holds every goroutine to a bounded lifetime: each
// package that spawns one (pprcache's fills, eval's and load's worker
// pools, the router's health probes, the servers' drains) has tests
// that call Check, so a goroutine left running fails them.
//
//	func TestDrain(t *testing.T) {
//		testleak.Check(t)
//		// ... spawn and drain ...
//	}
//
// Goroutines whose stacks match an allow pattern are ignored: the
// testing framework's own workers, runtime background goroutines and
// os/signal plumbing by default, plus any extra substrings passed to
// Check (matched against the full stack text, so either a function
// name or a file path works).
package testleak

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// retryFor bounds how long Cleanup waits for straggling goroutines to
// finish before declaring them leaked. Shutdown paths legitimately
// take a few scheduler ticks after the test body returns (a drained
// http.Server still tears down its listeners), so a one-shot
// comparison would be flaky.
const retryFor = 5 * time.Second

// allowlist matches goroutines that exist independently of the code
// under test. Substrings are matched against the first function line
// of each stack.
var allowlist = []string{
	"testing.(*T).Run",      // the test runner itself
	"testing.(*M).",         // TestMain machinery
	"testing.runTests",      // top-level driver
	"testing.tRunner",       // per-test goroutine
	"runtime.goexit",        // fully-exited placeholder frames
	"runtime/pprof.",        // profile writers under -cpuprofile
	"os/signal.signal_recv", // signal.Notify watcher, never exits
	"os/signal.loop",        // darwin variant of the same watcher
	"runtime.ReadTrace",     // execution tracer under -trace
	"runtime.(*scavengerState)",
	"runtime.bgsweep",
	"runtime.bgscavenge",
	"runtime.forcegchelper",
	"runtime.gcBgMarkWorker",
}

// Check snapshots the current goroutine set and registers a cleanup
// that fails t if goroutines created after the snapshot are still
// alive once the test (and retry grace period) ends. extraAllow adds
// stack substrings to ignore, for tests that intentionally park
// goroutines beyond their own lifetime.
//
// Call it first in the test, before any goroutine the test should be
// charged for is spawned. Parallel subtests sharing a process will see
// each other's goroutines; use Check only in tests that own their
// concurrency.
func Check(t testing.TB, extraAllow ...string) {
	t.Helper()
	before := snapshot()
	t.Cleanup(func() {
		deadline := time.Now().Add(retryFor)
		var leaked []string
		for {
			leaked = leakedSince(before, extraAllow)
			if len(leaked) == 0 || time.Now().After(deadline) {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		for _, stack := range leaked {
			t.Errorf("leaked goroutine:\n%s", stack)
		}
	})
}

// snapshot returns the identity set of currently-live goroutines,
// keyed by the header line ("goroutine 12 [running]:") ID.
func snapshot() map[string]bool {
	ids := make(map[string]bool)
	for _, stack := range stacks() {
		ids[goroutineID(stack)] = true
	}
	return ids
}

// leakedSince returns the stacks of goroutines not in before and not
// matched by the allowlist or extraAllow.
func leakedSince(before map[string]bool, extraAllow []string) []string {
	var leaked []string
	for _, stack := range stacks() {
		if before[goroutineID(stack)] || allowed(stack, extraAllow) {
			continue
		}
		leaked = append(leaked, stack)
	}
	return leaked
}

// stacks captures all goroutine stacks, growing the buffer until the
// dump fits, and splits them into per-goroutine blocks. The calling
// goroutine's own stack is excluded.
func stacks() []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	self := goroutineID(string(buf))
	var out []string
	for _, block := range strings.Split(string(buf), "\n\n") {
		if block == "" || goroutineID(block) == self {
			continue
		}
		out = append(out, block)
	}
	return out
}

// goroutineID extracts "goroutine N" from a stack block's header.
func goroutineID(stack string) string {
	header, _, _ := strings.Cut(stack, "\n")
	var id int
	if _, err := fmt.Sscanf(header, "goroutine %d ", &id); err != nil {
		return header
	}
	return fmt.Sprintf("goroutine %d", id)
}

// allowed reports whether the stack matches the built-in allowlist
// (first function frame) or any extraAllow substring (full text).
func allowed(stack string, extraAllow []string) bool {
	_, rest, _ := strings.Cut(stack, "\n")
	firstFunc, _, _ := strings.Cut(rest, "\n")
	firstFunc = strings.TrimSpace(firstFunc)
	for _, pat := range allowlist {
		if strings.Contains(firstFunc, pat) {
			return true
		}
	}
	for _, pat := range extraAllow {
		if strings.Contains(stack, pat) {
			return true
		}
	}
	return false
}
