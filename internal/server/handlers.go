// HTTP boundary: query parsing, the endpoint handlers, and the JSON
// response shapes. Handlers render complete responses into memory before
// writing, so every reply — success or error — is a single well-formed
// JSON document (or a byte-identical copy of the CLI's text rendering),
// and golden tests can pin exact bytes.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/profiler"
	"repro/internal/roofline"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// apiError is an HTTP-mappable failure: a status code plus a message that
// becomes the JSON error body.
type apiError struct {
	Status int
	Msg    string
}

func (e *apiError) Error() string { return e.Msg }

func apiErrorf(status int, format string, args ...any) *apiError {
	return &apiError{Status: status, Msg: fmt.Sprintf(format, args...)}
}

// errorBody is the JSON error envelope every failing request receives.
type errorBody struct {
	Error  string `json:"error"`
	Status int    `json:"status"`
}

// query is one parsed and validated API query.
type query struct {
	workload workloads.Workload
	device   string // validated device name
	format   string // "json" or "text"
}

// parseQuery validates the common query parameters against the catalog and
// device table. It is the fuzzed surface of the HTTP boundary: for any
// parameter values it must either return a valid query or an apiError with
// a well-defined status (400 for malformed parameters, 404 for an unknown
// workload) — never panic.
func parseQuery(v url.Values, cat *workloads.Catalog, devices map[string]gpu.DeviceConfig, deviceNames []string, needWorkload bool) (query, *apiError) {
	q := query{format: "json", device: "rtx3080"}
	switch f := v.Get("format"); f {
	case "", "json":
	case "text":
		q.format = "text"
	default:
		return q, apiErrorf(http.StatusBadRequest, "unknown format %q (json or text)", f)
	}
	if d := v.Get("device"); d != "" {
		if _, ok := devices[d]; !ok {
			return q, apiErrorf(http.StatusBadRequest, "unknown device %q (known: %s)",
				d, strings.Join(deviceNames, ", "))
		}
		q.device = d
	}
	if _, ok := devices[q.device]; !ok {
		// A custom device table without rtx3080: the default is not servable.
		return q, apiErrorf(http.StatusBadRequest, "missing device parameter (known: %s)",
			strings.Join(deviceNames, ", "))
	}
	if abbr := v.Get("workload"); abbr != "" {
		w, err := cat.Lookup(abbr)
		if err != nil {
			return q, apiErrorf(http.StatusNotFound, "unknown workload %q", abbr)
		}
		q.workload = w
	} else if needWorkload {
		return q, apiErrorf(http.StatusBadRequest, "missing workload parameter")
	}
	return q, nil
}

// writeJSON writes v as the complete response body. A failed write means
// the client hung up mid-response; it cannot be retried, so it is counted
// under serve.write_errors instead.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	data, err := json.MarshalIndent(v, "", "\t")
	if err != nil {
		// Response shapes are plain data; failure here is a programming bug.
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if _, err := w.Write(append(data, '\n')); err != nil {
		s.ctr.Add(telemetry.CtrServeWriteErrors, 1)
	}
}

// writeAPIError writes the JSON error envelope.
func (s *Server) writeAPIError(w http.ResponseWriter, aerr *apiError) {
	s.ctr.Add("serve.status."+strconv.Itoa(aerr.Status), 1)
	if aerr.Status == http.StatusGatewayTimeout {
		s.ctr.Add(telemetry.CtrServeDeadlineExceeded, 1)
	}
	s.writeJSON(w, aerr.Status, errorBody{Error: aerr.Msg, Status: aerr.Status})
}

// writeBody writes a rendered success body with the given content type.
func (s *Server) writeBody(w http.ResponseWriter, contentType string, body []byte) {
	s.ctr.Add("serve.status.200", 1)
	w.Header().Set("Content-Type", contentType)
	if _, err := w.Write(body); err != nil {
		s.ctr.Add(telemetry.CtrServeWriteErrors, 1)
	}
}

// api wraps a study-backed handler with the production funnel: shutdown
// rejection (503), bounded admission (429), the per-request deadline, the
// request counter, and the latency histogram. The handler returns either a
// rendered body or an apiError; nothing is written until one of the two is
// decided.
func (s *Server) api(h func(*http.Request) (contentType string, body []byte, aerr *apiError)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !s.enter() {
			s.ctr.Add(telemetry.CtrServeRejectedShutdown, 1)
			s.writeAPIError(w, apiErrorf(http.StatusServiceUnavailable, "server is shutting down"))
			return
		}
		defer s.exit()
		select {
		case s.queue <- struct{}{}:
			defer func() { <-s.queue }()
		default:
			s.ctr.Add(telemetry.CtrServeRejectedQueue, 1)
			s.writeAPIError(w, apiErrorf(http.StatusTooManyRequests,
				"work queue full (%d requests in flight)", s.opts.MaxInFlight))
			return
		}
		s.ctr.Add(telemetry.CtrServeRequests, 1)
		//lint:ignore nodeterminism request latency is telemetry about the server, not model output
		start := time.Now()
		ctx, cancel := context.WithTimeout(r.Context(), s.opts.Timeout)
		defer cancel()
		contentType, body, aerr := h(r.WithContext(ctx))
		//lint:ignore nodeterminism request latency is telemetry about the server, not model output
		s.latency.Observe(time.Since(start).Seconds())
		if aerr != nil {
			s.writeAPIError(w, aerr)
			return
		}
		s.writeBody(w, contentType, body)
	}
}

// renderFunc renders one (workload, device) query's response body.
type renderFunc func(s *Server, r *http.Request, q query) (contentType string, body []byte, aerr *apiError)

// renderers maps each single-workload query kind to its renderer. Each kind
// is served as GET /api/v1/<kind> and as a batch query kind.
var renderers = map[string]renderFunc{
	"profile":  (*Server).renderProfile,
	"roofline": (*Server).renderRoofline,
	"explain":  (*Server).renderExplain,
}

// handleQuery answers a single-workload GET query with render.
func (s *Server) handleQuery(render renderFunc) func(*http.Request) (string, []byte, *apiError) {
	return func(r *http.Request) (string, []byte, *apiError) {
		if aerr := requireMethod(r, http.MethodGet); aerr != nil {
			return "", nil, aerr
		}
		q, aerr := parseQuery(r.URL.Query(), s.cat, s.devices, s.deviceNames(), true)
		if aerr != nil {
			return "", nil, aerr
		}
		return render(s, r, q)
	}
}

// requireMethod returns a 405 apiError unless the request uses method.
func requireMethod(r *http.Request, method string) *apiError {
	if r.Method != method {
		return apiErrorf(http.StatusMethodNotAllowed, "method %s not allowed (use %s)", r.Method, method)
	}
	return nil
}

// buildMux mounts every endpoint.
func (s *Server) buildMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/api/v1/workloads", s.handleWorkloads)
	for kind, render := range renderers {
		mux.HandleFunc("/api/v1/"+kind, s.api(s.handleQuery(render)))
	}
	mux.HandleFunc("/api/v1/compare", s.api(s.handleCompare))
	mux.HandleFunc("/api/v1/batch", s.api(s.handleBatch))
	return mux
}

// handleHealthz answers liveness probes; it bypasses admission so health
// stays observable under full queues and during drain.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if aerr := requireMethod(r, http.MethodGet); aerr != nil {
		s.writeAPIError(w, aerr)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"status":    "ok",
		"workloads": len(s.cat.All()),
		"devices":   s.deviceNames(),
	})
}

// handleMetrics serves the Prometheus text exposition of the registry —
// the same snapshot path as the CLI's -metrics flag and /debug surfaces.
// It bypasses admission: metrics must stay scrapable under overload.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if aerr := requireMethod(r, http.MethodGet); aerr != nil {
		s.writeAPIError(w, aerr)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.reg.WritePrometheus(w); err != nil {
		s.ctr.Add(telemetry.CtrServeWriteErrors, 1)
	}
}

// workloadJSON is one catalog entry in the workloads listing.
type workloadJSON struct {
	Abbr   string `json:"abbr"`
	Suite  string `json:"suite"`
	Domain string `json:"domain"`
	Name   string `json:"name"`
}

// handleWorkloads lists the servable catalog.
func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	if aerr := requireMethod(r, http.MethodGet); aerr != nil {
		s.writeAPIError(w, aerr)
		return
	}
	q, aerr := parseQuery(r.URL.Query(), s.cat, s.devices, s.deviceNames(), false)
	if aerr != nil {
		s.writeAPIError(w, aerr)
		return
	}
	if q.format == "text" {
		var buf bytes.Buffer
		if err := core.WriteWorkloadsTable(&buf, s.cat.All()); err != nil {
			s.writeAPIError(w, apiErrorf(http.StatusInternalServerError, "%v", err))
			return
		}
		s.writeBody(w, "text/plain; charset=utf-8", buf.Bytes())
		return
	}
	out := make([]workloadJSON, 0, len(s.cat.All()))
	for _, wl := range s.cat.All() {
		out = append(out, workloadJSON{
			Abbr: wl.Abbr(), Suite: string(wl.Suite()),
			Domain: string(wl.Domain()), Name: wl.Name(),
		})
	}
	s.writeJSON(w, http.StatusOK, out)
}

// kernelJSON is one kernel's characterization in a profile response.
type kernelJSON struct {
	Name        string             `json:"name"`
	Invocations int                `json:"invocations"`
	TimeShare   float64            `json:"time_share"`
	II          float64            `json:"ii"`
	GIPS        float64            `json:"gips"`
	WarpInsts   uint64             `json:"warp_insts"`
	Metrics     map[string]float64 `json:"metrics"`
}

// profileJSON is the /api/v1/profile response shape.
type profileJSON struct {
	Workload       string       `json:"workload"`
	Device         string       `json:"device"`
	TotalTimeMs    float64      `json:"total_time_ms"`
	TotalWarpInsts uint64       `json:"total_warp_insts"`
	AggII          float64      `json:"agg_ii"`
	AggGIPS        float64      `json:"agg_gips"`
	Kernels        []kernelJSON `json:"kernels"`
}

func profileResponse(p *core.Profile, device string) profileJSON {
	out := profileJSON{
		Workload:       p.Abbr(),
		Device:         device,
		TotalTimeMs:    p.TotalTime.Millis(),
		TotalWarpInsts: uint64(p.TotalWarpInsts),
		AggII:          p.AggII,
		AggGIPS:        p.AggGIPS,
		Kernels:        make([]kernelJSON, 0, len(p.Kernels)),
	}
	for _, k := range p.Kernels {
		metrics := make(map[string]float64, profiler.NumMetrics)
		for _, m := range profiler.Metrics() {
			metrics[m.String()] = k.Metrics.Get(m)
		}
		out.Kernels = append(out.Kernels, kernelJSON{
			Name:        k.Name,
			Invocations: k.Invocations,
			TimeShare:   k.TimeShare.Clamp01(),
			II:          k.II(),
			GIPS:        k.GIPS(),
			WarpInsts:   uint64(k.WarpInstructions()),
			Metrics:     metrics,
		})
	}
	return out
}

// renderProfile renders one (workload, device) profile in the requested
// format — JSON, or the byte-identical CLI profile table for text.
func (s *Server) renderProfile(r *http.Request, q query) (string, []byte, *apiError) {
	p, err := s.profileFor(r.Context(), q.workload, q.device)
	if err != nil {
		return "", nil, apiErrorf(errStatus(err), "%v", err)
	}
	if q.format == "text" {
		var buf bytes.Buffer
		if err := core.WriteProfileTable(&buf, p); err != nil {
			return "", nil, apiErrorf(http.StatusInternalServerError, "%v", err)
		}
		return "text/plain; charset=utf-8", buf.Bytes(), nil
	}
	return marshalBody(profileResponse(p, q.device))
}

// pointJSON is one roofline point with its paper classifications.
type pointJSON struct {
	Label     string  `json:"label"`
	II        float64 `json:"ii"`
	GIPS      float64 `json:"gips"`
	TimeShare float64 `json:"time_share"`
	Side      string  `json:"side"`
	Bound     string  `json:"bound"`
}

// rooflineJSON is the /api/v1/roofline response shape.
type rooflineJSON struct {
	Workload  string      `json:"workload"`
	Device    string      `json:"device"`
	PeakGIPS  float64     `json:"peak_gips"`
	PeakGTXN  float64     `json:"peak_gtxn"`
	ElbowII   float64     `json:"elbow_ii"`
	Aggregate pointJSON   `json:"aggregate"`
	Kernels   []pointJSON `json:"kernels"`
}

func rooflinePoint(m roofline.Model, pt roofline.Point) pointJSON {
	return pointJSON{
		Label:     pt.Label,
		II:        pt.II,
		GIPS:      pt.GIPS,
		TimeShare: pt.TimeShare.Clamp01(),
		Side:      m.Classify(pt.II).String(),
		Bound:     m.BoundOf(pt.GIPS).String(),
	}
}

func (s *Server) renderRoofline(r *http.Request, q query) (string, []byte, *apiError) {
	p, err := s.profileFor(r.Context(), q.workload, q.device)
	if err != nil {
		return "", nil, apiErrorf(errStatus(err), "%v", err)
	}
	m := roofline.ForDevice(s.devices[q.device])
	out := rooflineJSON{
		Workload:  p.Abbr(),
		Device:    q.device,
		PeakGIPS:  m.PeakGIPS,
		PeakGTXN:  m.PeakGTXN,
		ElbowII:   m.ElbowII(),
		Aggregate: rooflinePoint(m, p.AggregatePoint()),
	}
	for _, pt := range p.KernelPoints() {
		out.Kernels = append(out.Kernels, rooflinePoint(m, pt))
	}
	return marshalBody(out)
}

// comparePointJSON is one device's aggregate placement in a comparison.
type comparePointJSON struct {
	II   float64 `json:"ii"`
	GIPS float64 `json:"gips"`
}

// compareJSON is one workload's cross-device comparison.
type compareJSON struct {
	Workload   string           `json:"workload"`
	A          comparePointJSON `json:"rtx3080"`
	B          comparePointJSON `json:"gtx1080"`
	Speedup    float64          `json:"speedup"`
	SideStable bool             `json:"side_stable"`
}

// compareWorkloads resolves the workload list of a compare query: the
// ?workload= parameter accepts one abbreviation or a comma-separated list.
func (s *Server) compareWorkloads(v url.Values) ([]workloads.Workload, *apiError) {
	raw := v.Get("workload")
	if raw == "" {
		return nil, apiErrorf(http.StatusBadRequest, "missing workload parameter")
	}
	var ws []workloads.Workload
	for _, abbr := range strings.Split(raw, ",") {
		w, err := s.cat.Lookup(strings.TrimSpace(abbr))
		if err != nil {
			return nil, apiErrorf(http.StatusNotFound, "unknown workload %q", strings.TrimSpace(abbr))
		}
		ws = append(ws, w)
	}
	return ws, nil
}

// handleCompare characterizes the given workloads on the rtx3080 and
// gtx1080 models — the CLI compare command as a query.
func (s *Server) handleCompare(r *http.Request) (string, []byte, *apiError) {
	if aerr := requireMethod(r, http.MethodGet); aerr != nil {
		return "", nil, aerr
	}
	// The workload parameter is a comma list here; validate it separately
	// (compareWorkloads) and give parseQuery only device and format.
	common := r.URL.Query()
	common.Del("workload")
	q, aerr := parseQuery(common, s.cat, s.devices, s.deviceNames(), false)
	if aerr != nil {
		return "", nil, aerr
	}
	for _, name := range []string{"rtx3080", "gtx1080"} {
		if _, ok := s.devices[name]; !ok {
			return "", nil, apiErrorf(http.StatusBadRequest, "compare requires the %s device", name)
		}
	}
	ws, aerr := s.compareWorkloads(r.URL.Query())
	if aerr != nil {
		return "", nil, aerr
	}
	a, err := s.studyFor(r.Context(), ws, "rtx3080")
	if err != nil {
		return "", nil, apiErrorf(errStatus(err), "%v", err)
	}
	b, err := s.studyFor(r.Context(), ws, "gtx1080")
	if err != nil {
		return "", nil, apiErrorf(errStatus(err), "%v", err)
	}
	cmps, err := core.CompareDevices(a, b)
	if err != nil {
		return "", nil, apiErrorf(http.StatusInternalServerError, "%v", err)
	}
	if q.format == "text" {
		var buf bytes.Buffer
		if err := core.WriteCompareTable(&buf, cmps); err != nil {
			return "", nil, apiErrorf(http.StatusInternalServerError, "%v", err)
		}
		return "text/plain; charset=utf-8", buf.Bytes(), nil
	}
	out := make([]compareJSON, 0, len(cmps))
	for _, c := range cmps {
		out = append(out, compareJSON{
			Workload:   c.Abbr,
			A:          comparePointJSON{II: c.A.II, GIPS: c.A.GIPS},
			B:          comparePointJSON{II: c.B.II, GIPS: c.B.GIPS},
			Speedup:    c.Speedup,
			SideStable: c.SideStable,
		})
	}
	return marshalBody(out)
}

// renderExplain renders one workload's top-down attribution tree. The
// sum-to-1 identity is verified before rendering, exactly like the CLI.
func (s *Server) renderExplain(r *http.Request, q query) (string, []byte, *apiError) {
	p, err := s.profileFor(r.Context(), q.workload, q.device)
	if err != nil {
		return "", nil, apiErrorf(errStatus(err), "%v", err)
	}
	root := core.AttributeProfile(p, s.devices[q.device])
	if violations := telemetry.CheckAttribution(root, 0); len(violations) > 0 {
		return "", nil, apiErrorf(http.StatusInternalServerError,
			"attribution identity violated: %v", violations[0])
	}
	var buf bytes.Buffer
	if q.format == "text" {
		if err := telemetry.WriteAttributionText(&buf, root, 0); err != nil {
			return "", nil, apiErrorf(http.StatusInternalServerError, "%v", err)
		}
		return "text/plain; charset=utf-8", buf.Bytes(), nil
	}
	if err := telemetry.WriteAttributionJSON(&buf, root); err != nil {
		return "", nil, apiErrorf(http.StatusInternalServerError, "%v", err)
	}
	return "application/json", buf.Bytes(), nil
}

// batchQuery is one query inside a POST /api/v1/batch request.
type batchQuery struct {
	Kind     string `json:"kind"` // profile | roofline | explain
	Workload string `json:"workload"`
	Device   string `json:"device,omitempty"`
	Format   string `json:"format,omitempty"`
}

// batchRequest is the /api/v1/batch request body.
type batchRequest struct {
	Queries []batchQuery `json:"queries"`
}

// batchResult is one query's outcome. Body carries the same bytes the
// single-query endpoint would have returned: raw JSON for format=json, a
// JSON-encoded string for format=text.
type batchResult struct {
	Kind     string          `json:"kind"`
	Workload string          `json:"workload"`
	Device   string          `json:"device"`
	Status   int             `json:"status"`
	Body     json.RawMessage `json:"body,omitempty"`
	Error    string          `json:"error,omitempty"`
}

// handleBatch answers many queries in one request, fanned out over the
// server's worker slots. Results come back in request order; each query
// fails or succeeds independently.
func (s *Server) handleBatch(r *http.Request) (string, []byte, *apiError) {
	if aerr := requireMethod(r, http.MethodPost); aerr != nil {
		return "", nil, aerr
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		return "", nil, apiErrorf(http.StatusBadRequest, "reading body: %v", err)
	}
	var req batchRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return "", nil, apiErrorf(http.StatusBadRequest, "parsing body: %v", err)
	}
	if len(req.Queries) == 0 {
		return "", nil, apiErrorf(http.StatusBadRequest, "empty batch")
	}
	if len(req.Queries) > maxBatch {
		return "", nil, apiErrorf(http.StatusBadRequest,
			"batch of %d queries exceeds the limit of %d", len(req.Queries), maxBatch)
	}
	results := make([]batchResult, len(req.Queries))
	var wg sync.WaitGroup
	for i, bq := range req.Queries {
		wg.Add(1)
		go func(i int, bq batchQuery) {
			defer wg.Done()
			results[i] = s.batchOne(r, bq)
		}(i, bq)
	}
	wg.Wait()
	return marshalBody(map[string]any{"results": results})
}

// batchOne executes one batch query through the same parse/render path as
// its single-query endpoint.
func (s *Server) batchOne(r *http.Request, bq batchQuery) batchResult {
	v := url.Values{}
	v.Set("workload", bq.Workload)
	if bq.Device != "" {
		v.Set("device", bq.Device)
	}
	if bq.Format != "" {
		v.Set("format", bq.Format)
	}
	res := batchResult{Kind: bq.Kind, Workload: bq.Workload, Device: bq.Device}
	if res.Device == "" {
		res.Device = "rtx3080"
	}
	q, aerr := parseQuery(v, s.cat, s.devices, s.deviceNames(), true)
	if aerr == nil {
		var body []byte
		var contentType string
		if render, ok := renderers[bq.Kind]; ok {
			contentType, body, aerr = render(s, r, q)
		} else {
			aerr = apiErrorf(http.StatusBadRequest,
				"unknown kind %q (profile, roofline, explain)", bq.Kind)
		}
		if aerr == nil {
			res.Status = http.StatusOK
			if strings.HasPrefix(contentType, "application/json") {
				res.Body = json.RawMessage(body)
			} else if enc, err := json.Marshal(string(body)); err == nil {
				res.Body = enc
			}
			return res
		}
	}
	res.Status = aerr.Status
	res.Error = aerr.Msg
	return res
}

// marshalBody renders a JSON response body.
func marshalBody(v any) (string, []byte, *apiError) {
	data, err := json.MarshalIndent(v, "", "\t")
	if err != nil {
		return "", nil, apiErrorf(http.StatusInternalServerError, "%v", err)
	}
	return "application/json", append(data, '\n'), nil
}
