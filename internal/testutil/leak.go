// Package testutil holds test-only harnesses shared across packages. The
// goroutine-leak checker here proves that lifecycle code — server drain,
// in-flight study completion, the detached study a 504'd or cancelled request
// leaves behind — actually returns the goroutines it started. ReadChrome
// parses back the Chrome traces telemetry writes.
package testutil

import (
	"fmt"
	"runtime"
	"strings"
	"time"
)

// TB is the subset of testing.TB the leak checker reports through. Taking
// the interface (rather than *testing.T) lets the checker's own tests pass
// a recorder and assert on what a deliberate leak produces.
type TB interface {
	Helper()
	Errorf(format string, args ...any)
}

// defaultSettle bounds how long CheckLeaks waits for goroutines started by
// the test to finish before declaring them leaked. Detached work that
// legitimately outlives a request (a server study after a 504) must
// complete within this window or the test fails.
const defaultSettle = 5 * time.Second

// CheckLeaks snapshots the running goroutines and returns a function that,
// deferred at test start as
//
//	defer testutil.CheckLeaks(t)()
//
// fails the test if goroutines created during the test are still running
// once it ends. Goroutines take time to unwind, so the check retries with
// backoff until the settle deadline before reporting; the report includes
// each leaked goroutine's full stack.
func CheckLeaks(tb TB) func() {
	return CheckLeaksWithin(tb, defaultSettle)
}

// CheckLeaksWithin is CheckLeaks with an explicit settle deadline, so the
// checker's own deliberate-leak test does not have to wait out the default.
func CheckLeaksWithin(tb TB, settle time.Duration) func() {
	before := goroutineIDs()
	return func() {
		tb.Helper()
		deadline := time.Now().Add(settle)
		backoff := time.Millisecond
		var leaked []string
		for {
			leaked = leaked[:0]
			for id, stack := range interestingGoroutines() {
				if !before[id] {
					leaked = append(leaked, stack)
				}
			}
			if len(leaked) == 0 {
				return
			}
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(backoff)
			if backoff < 100*time.Millisecond {
				backoff *= 2
			}
		}
		for _, stack := range leaked {
			tb.Errorf("goroutine leaked past the test (still running after %v):\n%s", settle, stack)
		}
	}
}

// goroutineIDs returns the IDs of the currently interesting goroutines.
func goroutineIDs() map[string]bool {
	ids := make(map[string]bool)
	for id := range interestingGoroutines() {
		ids[id] = true
	}
	return ids
}

// interestingGoroutines parses one runtime.Stack snapshot into id → stack
// stanzas, dropping the runtime's own long-lived goroutines and the
// testing framework's: those exist for the whole process and are never
// leaks.
func interestingGoroutines() map[string]string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, len(buf)*2)
	}
	out := make(map[string]string)
	for _, stanza := range strings.Split(string(buf), "\n\n") {
		id, ok := goroutineID(stanza)
		if !ok || boringStack(stanza) {
			continue
		}
		out[id] = stanza
	}
	return out
}

// goroutineID extracts the N of a "goroutine N [state]:" stanza header.
func goroutineID(stanza string) (string, bool) {
	var id int
	var state string
	if _, err := fmt.Sscanf(stanza, "goroutine %d [%s", &id, &state); err != nil {
		return "", false
	}
	return fmt.Sprint(id), true
}

// boringStack reports stanzas that belong to the runtime or the test
// harness rather than to code under test.
func boringStack(stanza string) bool {
	if strings.TrimSpace(stanza) == "" {
		return true
	}
	for _, marker := range []string{
		"runtime.Stack(",      // the snapshotting goroutine itself
		"testing.Main(",       // test harness
		"testing.tRunner(",    // the test's own goroutine
		"testing.(*M).",       // test harness setup
		"testing.runTests(",   // test harness
		"testing.(*T).Run(",   // parent test waiting on subtests
		"runtime.gc(",         // runtime housekeeping
		"runtime.MHeap_",      // runtime housekeeping
		"runtime.ReadTrace(",  // trace reader
		"signal.signal_recv(", // signal handler
		"signal.loop(",        // signal handler
		"runtime.ensureSigM(", // signal mask goroutine
	} {
		if strings.Contains(stanza, marker) {
			return true
		}
	}
	return false
}
