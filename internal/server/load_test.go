package server

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// loadRequest is one deterministic entry of the load mix.
type loadRequest struct {
	method, target, body string
	// resolutions is how many (workload, device) profile lookups the
	// request performs — the unit the LRU/flight funnel counts.
	resolutions int
	admitted    bool // true when the request flows through the api() funnel
}

// loadMix builds the deterministic mixed-query workload: every endpoint
// type, every (workload, device) combination, both formats.
func loadMix(wls, devs []string) []loadRequest {
	var mix []loadRequest
	for _, w := range wls {
		for _, d := range devs {
			mix = append(mix,
				loadRequest{"GET", fmt.Sprintf("/api/v1/profile?workload=%s&device=%s", w, d), "", 1, true},
				loadRequest{"GET", fmt.Sprintf("/api/v1/profile?workload=%s&device=%s&format=text", w, d), "", 1, true},
				loadRequest{"GET", fmt.Sprintf("/api/v1/roofline?workload=%s&device=%s", w, d), "", 1, true},
				loadRequest{"GET", fmt.Sprintf("/api/v1/explain?workload=%s&device=%s", w, d), "", 1, true},
			)
		}
		mix = append(mix, loadRequest{"GET", "/api/v1/compare?workload=" + w + "&format=text", "", 2, true})
	}
	mix = append(mix,
		loadRequest{"GET", "/api/v1/workloads", "", 0, false},
		loadRequest{"POST", "/api/v1/batch",
			`{"queries":[{"kind":"profile","workload":"` + wls[0] + `"},{"kind":"roofline","workload":"` + wls[1] + `","device":"` + devs[1] + `"}]}`,
			2, true},
	)
	return mix
}

// TestServeLoadMixed is the server's acceptance test: at least 1000
// concurrent mixed requests against one server, run under -race in CI.
// Every response must be byte-identical to the same query answered by a
// fresh single-worker server (cold serial study), the LRU/flight
// funnel must account for every profile resolution with zero identity
// mismatches and each combination characterized exactly once, and p99
// latency must stay within bounds.
func TestServeLoadMixed(t *testing.T) {
	if testing.Short() {
		t.Skip("fires >1000 concurrent requests")
	}
	wls := []string{"pb-sgemm", "pb-spmv", "rd-nn"}
	devs := []string{"rtx3080", "gtx1080"}
	mix := loadMix(wls, devs)

	// Reference pass: each unique request against its own fresh serial
	// server, so references are cold, deterministic, and uninfluenced by
	// the server under test.
	refs := make(map[string][]byte, len(mix))
	for _, rq := range mix {
		ref, err := New(Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		rr := do(t, ref, rq.method, rq.target, strings.NewReader(rq.body))
		if rr.Code != 200 {
			t.Fatalf("reference %s %s: status %d\n%s", rq.method, rq.target, rr.Code, rr.Body.String())
		}
		refs[rq.method+" "+rq.target] = rr.Body.Bytes()
		if err := ref.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}

	const total = 1200
	s := newTestServer(t, Options{
		Workers:     8,
		MaxInFlight: total + 1, // overload rejection is tested separately
		Timeout:     5 * time.Minute,
		LRUEntries:  64,
	})

	var (
		wg         sync.WaitGroup
		latencies  = make([]time.Duration, total)
		badStatus  atomic.Int64
		badBytes   atomic.Int64
		firstDiff  sync.Once
		admitted   int64
		wantLookup int64
	)
	for i := 0; i < total; i++ {
		rq := mix[i%len(mix)]
		wantLookup += int64(rq.resolutions)
		if rq.admitted {
			admitted++
		}
		wg.Add(1)
		go func(i int, rq loadRequest) {
			defer wg.Done()
			start := time.Now()
			rr := do(t, s, rq.method, rq.target, strings.NewReader(rq.body))
			latencies[i] = time.Since(start)
			if rr.Code != 200 {
				badStatus.Add(1)
				firstDiff.Do(func() {
					t.Errorf("%s %s: status %d\n%s", rq.method, rq.target, rr.Code, rr.Body.String())
				})
				return
			}
			if !bytes.Equal(rr.Body.Bytes(), refs[rq.method+" "+rq.target]) {
				badBytes.Add(1)
				firstDiff.Do(func() {
					t.Errorf("%s %s: response differs from cold serial reference\ngot:\n%s\nwant:\n%s",
						rq.method, rq.target, rr.Body.Bytes(), refs[rq.method+" "+rq.target])
				})
			}
		}(i, rq)
	}
	wg.Wait()

	if n := badStatus.Load(); n != 0 {
		t.Errorf("%d/%d requests returned a non-200 status", n, total)
	}
	if n := badBytes.Load(); n != 0 {
		t.Errorf("%d/%d responses were not byte-identical to their cold serial reference", n, total)
	}

	// Latency: p99 over all requests, including the cold studies.
	sorted := append([]time.Duration(nil), latencies...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	p50, p99 := sorted[total/2], sorted[total*99/100]
	t.Logf("latency: p50 %v, p99 %v, max %v", p50, p99, sorted[total-1])
	if p99 > 5*time.Second {
		t.Errorf("p99 latency %v exceeds 5s", p99)
	}

	// The funnel must balance exactly. Each (workload, device) combination
	// is characterized exactly once no matter how many requests raced for
	// it; every lookup is either an LRU hit or a counted miss that joined
	// exactly one flight; no entry was ever served under the wrong identity.
	combos := int64(len(wls) * len(devs))
	get := s.ctr.Get
	if got := get(telemetry.CtrWorkloads); got != combos {
		t.Errorf("workloads characterized = %d, want exactly %d (one flight per key must collapse duplicates)", got, combos)
	}
	if got := get(telemetry.CtrServeLRUMismatches); got != 0 {
		t.Errorf("LRU identity mismatches = %d, want 0", got)
	}
	if got := get(telemetry.CtrServeLRUEvictions); got != 0 {
		t.Errorf("LRU evictions = %d, want 0 (capacity exceeds the working set)", got)
	}
	hits, misses := get(telemetry.CtrServeLRUHits), get(telemetry.CtrServeLRUMisses)
	if hits+misses != wantLookup {
		t.Errorf("LRU hits (%d) + misses (%d) = %d, want %d lookups", hits, misses, hits+misses, wantLookup)
	}
	leaders, shared := get(telemetry.CtrServeFlightLeaders), get(telemetry.CtrServeFlightShared)
	if leaders+shared != misses {
		t.Errorf("flight leaders (%d) + shared (%d) = %d, want %d (every LRU miss joins exactly one flight)",
			leaders, shared, leaders+shared, misses)
	}
	if leaders != combos {
		t.Errorf("flight leaders = %d, want exactly %d (one per combination)", leaders, combos)
	}
	if got := get(telemetry.CtrServeRequests); got != admitted {
		t.Errorf("serve.requests = %d, want %d", got, admitted)
	}
	for _, ctr := range []string{
		telemetry.CtrServeRejectedQueue,
		telemetry.CtrServeRejectedShutdown,
		telemetry.CtrServeDeadlineExceeded,
	} {
		if got := get(ctr); got != 0 {
			t.Errorf("%s = %d, want 0", ctr, got)
		}
	}
	if got := s.table.len(); int64(got) != combos {
		t.Errorf("table holds %d complete entries, want %d", got, combos)
	}
}
