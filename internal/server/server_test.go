package server

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/isa"
	"repro/internal/profiler"
	"repro/internal/telemetry"
	"repro/internal/testutil"
	"repro/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite golden files")

// newTestServer builds a server with test-friendly defaults and registers
// its shutdown.
func newTestServer(t *testing.T, opts Options) *Server {
	t.Helper()
	if opts.Workers == 0 {
		opts.Workers = 2
	}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s
}

// do issues one request directly against the handler.
func do(t *testing.T, s *Server, method, target string, body io.Reader) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, target, body)
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, req)
	return rr
}

// errBody renders the exact JSON error envelope the server writes.
func errBody(status int, msg string) string {
	data, _ := json.MarshalIndent(errorBody{Error: msg, Status: status}, "", "\t")
	return string(data) + "\n"
}

// TestHandlerErrorPaths pins every client-facing failure to its exact
// status code and JSON error body.
func TestHandlerErrorPaths(t *testing.T) {
	s := newTestServer(t, Options{})
	tooMany := `{"queries":[` + strings.Repeat(`{"kind":"profile","workload":"pb-sgemm"},`, maxBatch) +
		`{"kind":"profile","workload":"pb-spmv"}]}`
	cases := []struct {
		name   string
		method string
		target string
		body   string
		status int
		want   string // exact body
	}{
		{"profile missing workload", "GET", "/api/v1/profile", "",
			400, errBody(400, "missing workload parameter")},
		{"profile unknown workload", "GET", "/api/v1/profile?workload=XYZ", "",
			404, errBody(404, `unknown workload "XYZ"`)},
		{"profile unknown device", "GET", "/api/v1/profile?workload=pb-sgemm&device=voodoo3", "",
			400, errBody(400, `unknown device "voodoo3" (known: gtx1080, rtx3080)`)},
		{"profile bad format", "GET", "/api/v1/profile?workload=pb-sgemm&format=xml", "",
			400, errBody(400, `unknown format "xml" (json or text)`)},
		{"profile wrong method", "POST", "/api/v1/profile?workload=pb-sgemm", "",
			405, errBody(405, "method POST not allowed (use GET)")},
		{"roofline missing workload", "GET", "/api/v1/roofline", "",
			400, errBody(400, "missing workload parameter")},
		{"explain unknown workload", "GET", "/api/v1/explain?workload=nope", "",
			404, errBody(404, `unknown workload "nope"`)},
		{"compare missing workload", "GET", "/api/v1/compare", "",
			400, errBody(400, "missing workload parameter")},
		{"compare unknown workload in list", "GET", "/api/v1/compare?workload=pb-sgemm,ZZZ", "",
			404, errBody(404, `unknown workload "ZZZ"`)},
		{"workloads bad format", "GET", "/api/v1/workloads?format=yaml", "",
			400, errBody(400, `unknown format "yaml" (json or text)`)},
		{"healthz wrong method", "POST", "/healthz", "",
			405, errBody(405, "method POST not allowed (use GET)")},
		{"metrics wrong method", "DELETE", "/metrics", "",
			405, errBody(405, "method DELETE not allowed (use GET)")},
		{"batch wrong method", "GET", "/api/v1/batch", "",
			405, errBody(405, "method GET not allowed (use POST)")},
		{"batch empty", "POST", "/api/v1/batch", `{"queries":[]}`,
			400, errBody(400, "empty batch")},
		{"batch too large", "POST", "/api/v1/batch", tooMany,
			400, errBody(400, fmt.Sprintf("batch of %d queries exceeds the limit of %d", maxBatch+1, maxBatch))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var body io.Reader
			if tc.body != "" {
				body = strings.NewReader(tc.body)
			}
			rr := do(t, s, tc.method, tc.target, body)
			if rr.Code != tc.status {
				t.Fatalf("status = %d, want %d\n%s", rr.Code, tc.status, rr.Body.String())
			}
			if got := rr.Body.String(); got != tc.want {
				t.Errorf("body = %q, want %q", got, tc.want)
			}
			if ct := rr.Header().Get("Content-Type"); ct != "application/json" {
				t.Errorf("Content-Type = %q, want application/json", ct)
			}
		})
	}

	t.Run("batch malformed JSON", func(t *testing.T) {
		rr := do(t, s, "POST", "/api/v1/batch", strings.NewReader("{nope"))
		if rr.Code != 400 {
			t.Fatalf("status = %d, want 400", rr.Code)
		}
		if !strings.Contains(rr.Body.String(), "parsing body") {
			t.Errorf("body = %q, want a parsing error", rr.Body.String())
		}
	})
}

// TestDeadlineExceeded — a request whose deadline expires gets 504, the
// deadline counter moves, and the underlying study still completes and
// lands in the profile table for the next asker. The leak check proves the
// detached leader exits once its study lands.
func TestDeadlineExceeded(t *testing.T) {
	defer testutil.CheckLeaks(t)()
	s := newTestServer(t, Options{Timeout: time.Nanosecond})
	rr := do(t, s, "GET", "/api/v1/profile?workload=pb-sgemm", nil)
	if rr.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504\n%s", rr.Code, rr.Body.String())
	}
	want := errBody(504, "context deadline exceeded")
	if rr.Body.String() != want {
		t.Errorf("body = %q, want %q", rr.Body.String(), want)
	}
	if got := s.ctr.Get(telemetry.CtrServeDeadlineExceeded); got != 1 {
		t.Errorf("deadline counter = %d, want 1", got)
	}
	// The abandoned study keeps running detached; it must land in the table.
	deadline := time.Now().Add(30 * time.Second)
	key := profileKey("pb-sgemm", s.devFPs["rtx3080"])
	for {
		if _, ok := s.table.complete(key); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("abandoned study never landed in the table")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestQueueFull — with MaxInFlight admission tokens all held, the next
// request is rejected with 429 and counted.
func TestQueueFull(t *testing.T) {
	s := newTestServer(t, Options{MaxInFlight: 1})
	s.queue <- struct{}{} // hold the only admission token
	defer func() { <-s.queue }()
	rr := do(t, s, "GET", "/api/v1/profile?workload=pb-sgemm", nil)
	if rr.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429\n%s", rr.Code, rr.Body.String())
	}
	want := errBody(429, "work queue full (1 requests in flight)")
	if rr.Body.String() != want {
		t.Errorf("body = %q, want %q", rr.Body.String(), want)
	}
	if got := s.ctr.Get(telemetry.CtrServeRejectedQueue); got != 1 {
		t.Errorf("queue-rejection counter = %d, want 1", got)
	}
}

// TestShutdownRejects — after Shutdown begins, API requests get 503.
func TestShutdownRejects(t *testing.T) {
	defer testutil.CheckLeaks(t)()
	s, err := New(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	rr := do(t, s, "GET", "/api/v1/profile?workload=pb-sgemm", nil)
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", rr.Code)
	}
	want := errBody(503, "server is shutting down")
	if rr.Body.String() != want {
		t.Errorf("body = %q, want %q", rr.Body.String(), want)
	}
	if got := s.ctr.Get(telemetry.CtrServeRejectedShutdown); got != 1 {
		t.Errorf("shutdown-rejection counter = %d, want 1", got)
	}
}

// TestShutdownWaitsForDetachedLeader — the study a 504'd request leaves
// running is part of the drain: once Shutdown returns, its profile is in
// the table and its goroutine has exited.
func TestShutdownWaitsForDetachedLeader(t *testing.T) {
	defer testutil.CheckLeaks(t)()
	s, err := New(Options{Workers: 1, Timeout: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	rr := do(t, s, "GET", "/api/v1/profile?workload=pb-sgemm", nil)
	if rr.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504\n%s", rr.Code, rr.Body.String())
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.table.complete(profileKey("pb-sgemm", s.devFPs["rtx3080"])); !ok {
		t.Error("Shutdown returned before the detached study landed in the table")
	}
}

// TestCancelledRequest — a request whose client has already gone away gets
// 499 and its JSON body; the study it started still completes, and Shutdown
// drains it without leaking a goroutine.
func TestCancelledRequest(t *testing.T) {
	defer testutil.CheckLeaks(t)()
	s, err := New(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Hold the only worker slot so the study cannot finish before the
	// request gives up.
	s.slots <- struct{}{}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest("GET", "/api/v1/profile?workload=pb-sgemm", nil).WithContext(ctx)
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, req)
	<-s.slots
	if rr.Code != 499 {
		t.Fatalf("status = %d, want 499\n%s", rr.Code, rr.Body.String())
	}
	if want := errBody(499, "context canceled"); rr.Body.String() != want {
		t.Errorf("body = %q, want %q", rr.Body.String(), want)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.table.complete(profileKey("pb-sgemm", s.devFPs["rtx3080"])); !ok {
		t.Error("the cancelled request's study never landed in the table")
	}
}

// TestLRUMismatchRecovers — a complete table entry whose stored identity
// disagrees with its key is never served: the mismatch is counted and the
// profile recomputed correctly.
func TestLRUMismatchRecovers(t *testing.T) {
	s := newTestServer(t, Options{})
	// Poison the cache: file pb-spmv's identity under pb-sgemm's key.
	key := profileKey("pb-sgemm", s.devFPs["rtx3080"])
	e, _ := s.table.lookup(key, "pb-spmv", "bogus")
	s.table.finish(e, &core.Profile{}, nil)
	rr := do(t, s, "GET", "/api/v1/profile?workload=pb-sgemm", nil)
	if rr.Code != 200 {
		t.Fatalf("status = %d, want 200\n%s", rr.Code, rr.Body.String())
	}
	var p profileJSON
	if err := json.Unmarshal(rr.Body.Bytes(), &p); err != nil {
		t.Fatal(err)
	}
	if p.Workload != "pb-sgemm" {
		t.Errorf("served workload %q, want pb-sgemm", p.Workload)
	}
	if got := s.ctr.Get(telemetry.CtrServeLRUMismatches); got != 1 {
		t.Errorf("mismatch counter = %d, want 1", got)
	}
}

// TestHealthz pins the liveness response shape.
func TestHealthz(t *testing.T) {
	s := newTestServer(t, Options{})
	rr := do(t, s, "GET", "/healthz", nil)
	if rr.Code != 200 {
		t.Fatalf("status = %d, want 200", rr.Code)
	}
	var h struct {
		Status    string   `json:"status"`
		Workloads int      `json:"workloads"`
		Devices   []string `json:"devices"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Workloads == 0 {
		t.Errorf("healthz = %+v", h)
	}
	if fmt.Sprint(h.Devices) != "[gtx1080 rtx3080]" {
		t.Errorf("devices = %v", h.Devices)
	}
}

// TestMetricsEndpoint — /metrics must expose the serve counters through
// the shared Prometheus snapshot path.
func TestMetricsEndpoint(t *testing.T) {
	s := newTestServer(t, Options{})
	if rr := do(t, s, "GET", "/api/v1/profile?workload=rd-nn", nil); rr.Code != 200 {
		t.Fatalf("profile: status = %d", rr.Code)
	}
	rr := do(t, s, "GET", "/metrics", nil)
	if rr.Code != 200 {
		t.Fatalf("status = %d, want 200", rr.Code)
	}
	for _, want := range []string{
		"serve_requests 1",
		"serve_lru_misses 1",
		"serve_singleflight_leaders 1",
		"serve_request_seconds",
		"study_workloads_characterized 1",
	} {
		if !strings.Contains(rr.Body.String(), want) {
			t.Errorf("/metrics missing %q:\n%s", want, rr.Body.String())
		}
	}
}

// TestBatchMixedOutcomes — queries in one batch succeed and fail
// independently, in request order.
func TestBatchMixedOutcomes(t *testing.T) {
	s := newTestServer(t, Options{})
	body := `{"queries":[
		{"kind":"profile","workload":"pb-sgemm"},
		{"kind":"profile","workload":"XYZ"},
		{"kind":"roofline","workload":"pb-sgemm","device":"gtx1080"},
		{"kind":"frobnicate","workload":"pb-sgemm"}
	]}`
	rr := do(t, s, "POST", "/api/v1/batch", strings.NewReader(body))
	if rr.Code != 200 {
		t.Fatalf("status = %d, want 200\n%s", rr.Code, rr.Body.String())
	}
	var resp struct {
		Results []batchResult `json:"results"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	wantStatuses := []int{200, 404, 200, 400}
	if len(resp.Results) != len(wantStatuses) {
		t.Fatalf("got %d results, want %d", len(resp.Results), len(wantStatuses))
	}
	for i, r := range resp.Results {
		if r.Status != wantStatuses[i] {
			t.Errorf("result %d: status = %d, want %d (%s)", i, r.Status, wantStatuses[i], r.Error)
		}
	}
	if resp.Results[2].Device != "gtx1080" {
		t.Errorf("result 2 device = %q, want gtx1080", resp.Results[2].Device)
	}
}

// TestGoldenResponses pins the exact bytes of every endpoint's successful
// response. Regenerate with `go test ./internal/server -run Golden -update`.
func TestGoldenResponses(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	cases := []struct {
		golden string
		target string
	}{
		{"profile_pb-sgemm.json", "/api/v1/profile?workload=pb-sgemm"},
		{"profile_pb-sgemm.txt", "/api/v1/profile?workload=pb-sgemm&format=text"},
		{"profile_pb-spmv_gtx1080.json", "/api/v1/profile?workload=pb-spmv&device=gtx1080"},
		{"roofline_pb-sgemm.json", "/api/v1/roofline?workload=pb-sgemm"},
		{"explain_rd-nn.json", "/api/v1/explain?workload=rd-nn"},
		{"explain_rd-nn.txt", "/api/v1/explain?workload=rd-nn&format=text"},
		{"compare_pb-sgemm.txt", "/api/v1/compare?workload=pb-sgemm&format=text"},
		{"compare_pb-sgemm.json", "/api/v1/compare?workload=pb-sgemm"},
		{"workloads.json", "/api/v1/workloads"},
		{"workloads.txt", "/api/v1/workloads?format=text"},
	}
	for _, tc := range cases {
		t.Run(tc.golden, func(t *testing.T) {
			rr := do(t, s, "GET", tc.target, nil)
			if rr.Code != 200 {
				t.Fatalf("status = %d\n%s", rr.Code, rr.Body.String())
			}
			path := filepath.Join("testdata", tc.golden)
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, rr.Body.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			if !bytes.Equal(rr.Body.Bytes(), want) {
				t.Errorf("response differs from %s:\ngot:\n%s\nwant:\n%s", path, rr.Body.Bytes(), want)
			}
		})
	}
}

// TestDeviceFingerprintsNameCacheEntries — the fingerprints the server
// keys its profile table by must be the ones the profile cache
// names its entries by, for every device it serves.
func TestDeviceFingerprintsNameCacheEntries(t *testing.T) {
	dir := t.TempDir()
	cache, err := core.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Options{Cache: cache})
	for dev, fp := range s.devFPs {
		if rr := do(t, s, "GET", "/api/v1/profile?workload=pb-sgemm&device="+dev, nil); rr.Code != http.StatusOK {
			t.Fatalf("%s: status %d\n%s", dev, rr.Code, rr.Body.String())
		}
		entries, err := filepath.Glob(filepath.Join(dir, "pb-sgemm-"+fp+"-*"))
		if err != nil || len(entries) != 1 {
			t.Errorf("%s: %d cache entries named by fingerprint %s (err=%v), want 1", dev, len(entries), fp, err)
		}
	}
}

// raggedWorkload submits, as the real emitters do, a kernel whose
// 100-thread blocks are not a warp multiple.
type raggedWorkload struct{}

func (raggedWorkload) Name() string             { return "ragged" }
func (raggedWorkload) Abbr() string             { return "RAG" }
func (raggedWorkload) Suite() workloads.Suite   { return workloads.Cactus }
func (raggedWorkload) Domain() workloads.Domain { return workloads.Scientific }
func (raggedWorkload) Run(s *profiler.Session) error {
	var mix isa.Mix
	mix.Add(isa.FP32, 1<<10)
	s.Submit(gpu.KernelSpec{Name: "ragged", Grid: gpu.D1(8), Block: gpu.D1(100), Mix: mix})
	return nil
}

// TestFailedLaunchIs500 — a workload whose launch breaks a spec rule gets
// 500 naming the kernel and the rule, and the server goes on serving: the
// next request for a valid workload gets 200.
func TestFailedLaunchIs500(t *testing.T) {
	def, err := core.DefaultCatalog()
	if err != nil {
		t.Fatal(err)
	}
	sgemm, err := def.Lookup("pb-sgemm")
	if err != nil {
		t.Fatal(err)
	}
	cat, err := workloads.NewCatalog(raggedWorkload{}, sgemm)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Options{Catalog: cat})
	rr := do(t, s, "GET", "/api/v1/profile?workload=RAG", nil)
	if rr.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500\n%s", rr.Code, rr.Body.String())
	}
	for _, want := range []string{"kernel ragged", "block-warp"} {
		if !strings.Contains(rr.Body.String(), want) {
			t.Errorf("body %q does not name %q", rr.Body.String(), want)
		}
	}
	if rr := do(t, s, "GET", "/api/v1/profile?workload=pb-sgemm", nil); rr.Code != http.StatusOK {
		t.Errorf("status after the failed launch = %d, want 200\n%s", rr.Code, rr.Body.String())
	}
}
