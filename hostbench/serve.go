package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/server"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// serve_mix serves the 32 baseline-suite workloads on both stock devices
// (64 profile keys) from a disk cache primed during set-up. The Cactus
// workloads are left out: one cold DCG takes seconds and would swamp the
// mix; study_all covers that cost.
//
// The traffic is an assumption, not a measured trace: no source records
// how this server is queried. It is kept to the fewest free parameters:
// request kinds, devices and formats are uniform, and only workload
// popularity is skewed, by a Zipf law of exponent zipfS over catalog order.
const (
	// lruEntries is the server's -lru capacity, half the keys, with the
	// server's default sharding, so a share of requests reads the disk
	// cache.
	lruEntries = 32
	zipfS      = 1.1
	batchItems = 4
	// mixBlocks splits the measured time into blocks; each block runs
	// coldSweepsPerBlock cold sweeps and then the mix, and the metrics
	// are medians over the blocks.
	mixBlocks          = 10
	coldSweepsPerBlock = 20
	primeReps          = 9
	minMixBlock        = 100 * time.Millisecond
)

var serveDevices = []string{"rtx3080", "gtx1080"}

// query is one generated serve_mix request.
type query struct {
	kind     string // profile, roofline, explain, compare or batch
	workload string // compare: the first of two workloads
	pair     string // compare: the second workload
	device   string
	format   string  // json or text
	items    []query // batch: single queries
}

// key names the query's response for the reference digests. A batch has
// no key of its own; each of its items is checked under the item's key.
func (q query) key() string {
	if q.kind == "compare" {
		return "compare " + q.workload + "," + q.pair + " " + q.format
	}
	return q.kind + " " + q.workload + " " + q.device + " " + q.format
}

// bodyFormat is the format the server answers q in: roofline has no text
// rendering and answers JSON for either format.
func (q query) bodyFormat() string {
	if q.kind == "roofline" {
		return "json"
	}
	return q.format
}

// request builds the HTTP request. Parameters go through url.Values, so a
// name such as rd-b+tree reaches the server intact instead of decoding to
// "rd-b tree".
func (q query) request(ctx context.Context, base string) (*http.Request, error) {
	if q.kind == "batch" {
		type item struct {
			Kind     string `json:"kind"`
			Workload string `json:"workload"`
			Device   string `json:"device"`
			Format   string `json:"format"`
		}
		var body struct {
			Queries []item `json:"queries"`
		}
		for _, it := range q.items {
			body.Queries = append(body.Queries, item{it.kind, it.workload, it.device, it.format})
		}
		data, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/api/v1/batch", bytes.NewReader(data))
		if err == nil {
			req.Header.Set("Content-Type", "application/json")
		}
		return req, err
	}
	v := url.Values{}
	v.Set("format", q.format)
	if q.kind == "compare" {
		v.Set("workload", q.workload+","+q.pair)
	} else {
		v.Set("workload", q.workload)
		v.Set("device", q.device)
	}
	return http.NewRequestWithContext(ctx, http.MethodGet, base+"/api/v1/"+q.kind+"?"+v.Encode(), nil)
}

// generator yields one client's seeded request sequence: the same seed
// and client give the same sequence. Popularity follows catalog order, so
// every seed draws from the same distribution and seeds differ only in the
// sample: per-request costs differ a lot between workloads, and a seeded
// hot set would make the seed move the medians.
type generator struct {
	r       *rand.Rand
	zipf    *rand.Zipf
	catalog []string // workloads in catalog order, most popular first
}

func newGenerator(seed int64, client int, abbrs []string) *generator {
	r := rand.New(rand.NewSource(seed*1_000_003 + int64(client) + 1))
	return &generator{r: r, zipf: rand.NewZipf(r, zipfS, 1, uint64(len(abbrs)-1)), catalog: abbrs}
}

func (g *generator) workload() string { return g.catalog[g.zipf.Uint64()] }

// pick draws one of xs uniformly.
func (g *generator) pick(xs ...string) string { return xs[g.r.Intn(len(xs))] }

func (g *generator) format() string { return g.pick("json", "text") }

// single draws a query of kind, which is profile, roofline or explain.
func (g *generator) single(kind string) query {
	return query{kind: kind, workload: g.workload(), device: g.pick(serveDevices...), format: g.format()}
}

// next draws the next request; the five kinds are equally likely, and so
// are the three kinds of a batch item.
func (g *generator) next() query {
	switch kind := g.pick("profile", "roofline", "explain", "compare", "batch"); kind {
	case "compare":
		w := g.workload()
		return query{kind: kind, workload: w, pair: pairOf(g.catalog, w), format: g.format()}
	case "batch":
		q := query{kind: kind}
		for i := 0; i < batchItems; i++ {
			q.items = append(q.items, g.single(g.pick("profile", "roofline", "explain")))
		}
		return q
	default:
		return g.single(kind)
	}
}

// pairOf is the workload compared with w: the next one in catalog order.
func pairOf(catalog []string, w string) string {
	for i, a := range catalog {
		if a == w {
			return catalog[(i+1)%len(catalog)]
		}
	}
	return w
}

// allQueries lists every distinct single query the generator can draw:
// the set reference.json records a digest for.
func allQueries(abbrs []string) []query {
	var out []query
	for _, w := range abbrs {
		for _, f := range []string{"json", "text"} {
			for _, k := range []string{"profile", "roofline", "explain"} {
				for _, d := range serveDevices {
					out = append(out, query{kind: k, workload: w, device: d, format: f})
				}
			}
			out = append(out, query{kind: "compare", workload: w, pair: pairOf(abbrs, w), format: f})
		}
	}
	return out
}

// canonical is the form a body is digested in: compact JSON, or the text
// itself. A batch embeds each item's JSON re-indented and its text as a
// JSON string, so both forms must reduce to the same bytes.
func canonical(format string, body []byte) ([]byte, error) {
	if format == "text" {
		return body, nil
	}
	var buf bytes.Buffer
	err := json.Compact(&buf, body)
	return buf.Bytes(), err
}

// verifier checks response bodies against the reference digests. Each
// client owns one; a body already verified for a key is compared byte for
// byte afterwards, which keeps the check cheap.
type verifier struct {
	ref  map[string]string
	seen map[string][]byte
}

func newVerifier(ref map[string]string) *verifier {
	return &verifier{ref: ref, seen: map[string][]byte{}}
}

func (v *verifier) single(key, format string, body []byte) bool {
	if seen, ok := v.seen[key]; ok {
		return bytes.Equal(seen, body)
	}
	c, err := canonical(format, body)
	if err != nil || digest(c) != v.ref[key] {
		return false
	}
	v.seen[key] = bytes.Clone(body)
	return true
}

func (v *verifier) check(q query, body []byte) bool {
	if q.kind != "batch" {
		return v.single(q.key(), q.bodyFormat(), body)
	}
	var resp struct {
		Results []struct {
			Status int             `json:"status"`
			Body   json.RawMessage `json:"body"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &resp); err != nil || len(resp.Results) != len(q.items) {
		return false
	}
	for i, it := range q.items {
		res := resp.Results[i]
		if res.Status != http.StatusOK {
			return false
		}
		item := []byte(res.Body)
		if it.bodyFormat() == "text" {
			var s string
			if err := json.Unmarshal(item, &s); err != nil {
				return false
			}
			item = []byte(s)
		}
		c, err := canonical(it.bodyFormat(), item)
		if err != nil || digest(c) != v.ref[it.key()] {
			return false
		}
	}
	return true
}

// noRender renders nothing: priming only characterizes.
func noRender(*core.Study, io.Writer, *spanRec) error { return nil }

// servePrime is serve_mix's set-up: a disk cache holding every baseline
// workload's profile on both devices, characterized through the engine
// exactly as a cold server would.
func servePrime(dir string, workers int, spans *spanRec) (*core.ProfileCache, []*studyRun, error) {
	cache, err := core.OpenCache(dir)
	if err != nil {
		return nil, nil, err
	}
	var runs []*studyRun
	for _, dev := range []gpu.DeviceConfig{gpu.RTX3080(), gpu.GTX1080()} {
		r, err := studyOnce(dev, core.BaselineWorkloads(), cache, workers, spans, noRender)
		if err != nil {
			return nil, nil, err
		}
		runs = append(runs, r)
	}
	return cache, runs, nil
}

func baselineAbbrs() []string {
	var out []string
	for _, w := range core.BaselineWorkloads() {
		out = append(out, w.Abbr())
	}
	return out
}

// liveServer is a server.New answered in process: each request goes
// straight to its handler and is recorded by an httptest.ResponseRecorder.
// There is no listener on purpose. A loopback TCP round trip is net/http
// and the kernel, which no change to this repository moves; on a shared
// 2-vCPU virtual machine its cost swung by 60% between quarter-hours and
// was 40% of each request.
type liveServer struct {
	srv *server.Server
	h   http.Handler
}

// startServer starts a server over cache with the serve_mix deployment
// settings.
func startServer(cache *core.ProfileCache, workers int) (*liveServer, error) {
	cat, err := workloads.NewCatalog(core.BaselineWorkloads()...)
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Options{
		Catalog: cat, Workers: workers, Cache: cache, LRUEntries: lruEntries,
	})
	if err != nil {
		return nil, err
	}
	return &liveServer{srv: srv, h: srv.Handler()}, nil
}

// close drains the server.
func (s *liveServer) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return s.srv.Shutdown(ctx)
}

// fetch sends q to the server and returns the status and body.
func (s *liveServer) fetch(ctx context.Context, q query) (int, []byte, error) {
	req, err := q.request(ctx, "http://hostbench")
	if err != nil {
		return 0, nil, err
	}
	rec := httptest.NewRecorder()
	s.h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes(), nil
}

// mixStats is what the clients of one mix measured.
type mixStats struct {
	mu      sync.Mutex
	lat     latHist // seconds, every request
	bytes   int64
	ops     tally
	elapsed float64
}

func (s *mixStats) add(lat float64, n int, ok bool, what func() string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lat.add(lat)
	s.bytes += int64(n)
	if ok {
		s.ops.check(true, "")
	} else {
		s.ops.check(false, "serve_mix %s", what())
	}
}

// mixClient is one closed-loop client. It outlives a runMix call, so a
// mix run in blocks continues each client's sequence.
type mixClient struct {
	gen *generator
	ver *verifier
	n   int // requests sent so far
}

func newClients(seed int64, n int, ref map[string]string) []*mixClient {
	cs := make([]*mixClient, n)
	for c := range cs {
		cs[c] = &mixClient{gen: newGenerator(seed, c, baselineAbbrs()), ver: newVerifier(ref)}
	}
	return cs
}

// runMix drives the clients closed-loop against ls until deadline, one
// goroutine each. With spans set, each client's requests and its own work
// (drawing the next query, checking the reply) are spans on its lane.
func runMix(ls *liveServer, clients []*mixClient, deadline time.Time, spans *spanRec) *mixStats {
	st := &mixStats{}
	ctx := context.Background()
	start := time.Now()
	var wg sync.WaitGroup
	for c, cl := range clients {
		wg.Add(1)
		go func(c int, cl *mixClient) {
			defer wg.Done()
			gen, ver := cl.gen, cl.ver
			lane := clientLane + c
			for ; time.Now().Before(deadline); cl.n++ {
				i := cl.n
				var q query
				_ = spans.span(lane, "client", "next", nil, func() error { q = gen.next(); return nil })
				var code int
				var body []byte
				var err error
				t0 := time.Now()
				_ = spans.span(lane, "server", q.kind, nil, func() error {
					code, body, err = ls.fetch(ctx, q)
					return nil
				})
				lat := time.Since(t0).Seconds()
				ok := false
				_ = spans.span(lane, "client", "verify", nil, func() error {
					ok = err == nil && code == http.StatusOK && ver.check(q, body)
					return nil
				})
				st.add(lat, len(body), ok, func() string {
					return fmt.Sprintf("client %d request %d %s: status %d, err %v", c, i, q.kind, code, err)
				})
			}
		}(c, cl)
	}
	wg.Wait()
	st.elapsed = time.Since(start).Seconds()
	return st
}

// merge adds other's requests to s.
func (s *mixStats) merge(other *mixStats) {
	s.lat.merge(&other.lat)
	s.bytes += other.bytes
	s.ops.add(other.ops)
	s.elapsed += other.elapsed
}

// coldSweeps restarts a server over cache n times, and each restarted
// server answers every key once, so every answer reads the disk cache
// through an empty LRU. It returns the wall and process CPU seconds of one
// sweep (start, 64 answers, shutdown), averaged over all n: the CPU clock
// is read once around them all, since a 10 ms read would carry up to a
// scheduler tick of error from the other threads' clocks.
func coldSweeps(cache *core.ProfileCache, workers, n int, ver *verifier, ops *tally) (sample, error) {
	runtime.GC() // a restarted server starts with an empty heap
	c0, start := cpuSeconds(), time.Now()
	for i := 0; i < n; i++ {
		ls, err := startServer(cache, workers)
		if err != nil {
			return sample{}, err
		}
		for _, w := range baselineAbbrs() {
			for _, d := range serveDevices {
				q := query{kind: "profile", workload: w, device: d, format: "json"}
				code, body, err := ls.fetch(context.Background(), q)
				ops.check(err == nil && code == http.StatusOK && ver.check(q, body),
					"serve_mix cold sweep %s: status %d, err %v", q.key(), code, err)
			}
		}
		if err := ls.close(); err != nil {
			return sample{}, err
		}
	}
	return sample{wall: time.Since(start).Seconds() / float64(n), cpu: (cpuSeconds() - c0) / float64(n)}, nil
}

// runServeMix measures serve_mix: priming as set-up, cold sweeps of
// restarted servers, then the closed-loop mix.
func runServeMix(cfg config, p plan, ref *reference, dir string, errOut io.Writer) (*measurement, error) {
	m := newMeasurement()
	checkPrime := func(runs []*studyRun, counted bool) {
		var ps []*core.Profile
		var launches int64
		for _, r := range runs {
			ps = append(ps, r.st.Profiles...)
			launches += r.launches
		}
		got := countSim(ps)
		m.ops.check(got == ref.ServeSim, "serve_mix priming: simulated statistics %+v, want %+v", got, ref.ServeSim)
		if counted {
			m.ops.check(launches == ref.ServeSim.Launches, "serve_mix priming: %d launches counted, want %d", launches, ref.ServeSim.Launches)
		}
	}
	if cfg.trace {
		return traceServeMix(cfg, p, m, ref, dir, checkPrime, errOut)
	}
	var cache *core.ProfileCache
	var primes []sample
	for i := 0; i < primeReps; i++ {
		var runs []*studyRun
		s, err := timeOp(func() (err error) {
			cache, runs, err = servePrime(filepath.Join(dir, fmt.Sprintf("prime-%d", i)), p.workers, nil)
			return err
		})
		if err != nil {
			return nil, err
		}
		checkPrime(runs, true)
		primes = append(primes, s)
	}
	m.values["setup_s"] = median(cpus(primes))

	// The measured time runs in blocks, each of cold sweeps and then the
	// mix, so both metrics sample the whole run; the CPU per sweep and per
	// request, which counts both ends of each request and the clients'
	// checks, are medians over the blocks.
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.seconds) * time.Second)
	ver := newVerifier(ref.ServeBodies)
	ls, err := startServer(cache, p.workers)
	if err != nil {
		return nil, err
	}
	clients := newClients(cfg.seed, p.clients, ref.ServeBodies)
	all := &mixStats{}
	var colds []sample
	var per []float64
	for b := 0; b < mixBlocks; b++ {
		cold, err := coldSweeps(cache, p.workers, coldSweepsPerBlock, ver, &m.ops)
		if err != nil {
			return nil, err
		}
		colds = append(colds, cold)
		// The mix gets an even share of the time left; at least
		// minMixBlock, so a short --seconds still measures every block.
		slice := max(time.Until(deadline)/time.Duration(mixBlocks-b), minMixBlock)
		c0 := cpuSeconds()
		st := runMix(ls, clients, time.Now().Add(slice), nil)
		per = append(per, 1e3*(cpuSeconds()-c0)/float64(st.lat.n))
		all.merge(st)
	}
	if err := ls.close(); err != nil {
		return nil, err
	}
	m.ops.add(all.ops)
	m.values["cold_cpu_s"] = median(cpus(colds))
	m.values["warm_cpu_ms"] = median(per)
	fmt.Fprintf(errOut, "hostbench: serve_mix: priming wall %.3f s, CPU %.3f s (medians); cold sweep wall %.4f s, CPU %.4f s (medians); "+
		"%d requests from %d clients in %.2f s, %.0f/s, wall p50 %.4f ms, p90 %.4f ms, p99 %.4f ms\n",
		median(walls(primes)), median(cpus(primes)), median(walls(colds)), median(cpus(colds)),
		all.lat.n, p.clients, all.elapsed, float64(all.lat.n)/all.elapsed,
		1e3*all.lat.quantile(0.5), 1e3*all.lat.quantile(0.9), 1e3*all.lat.quantile(0.99))
	return m, nil
}

// traceServeMix is the traced run of serve_mix: a traced priming, then
// half the time untraced and half traced traffic, each against a fresh
// server, so the difference is the tracing overhead.
func traceServeMix(cfg config, p plan, m *measurement, ref *reference, dir string,
	checkPrime func([]*studyRun, bool), errOut io.Writer) (*measurement, error) {
	v := m.values
	cat, err := workloads.NewCatalog(core.BaselineWorkloads()...)
	if err != nil {
		return nil, err
	}
	spans := newSpanRec()
	cache, runs, err := servePrime(filepath.Join(dir, "prime"), p.workers, spans)
	if err != nil {
		return nil, err
	}
	checkPrime(runs, false)
	events := spans.rec.Events()
	var ps []*core.Profile
	unaccounted := 0.0
	for _, r := range runs {
		sp := splitStudy(events, r.studyStart, r.studyEnd, p.workers, cat)
		putStudyLayers(v, sp)
		unaccounted = max(unaccounted, checkCoverage(&m.ops, "serve_mix priming critical worker lane", sp.coverage))
		sp.layers.print(errOut, fmt.Sprintf("serve_mix priming on %s, %d worker lanes", r.st.Device.Name, p.workers),
			float64(p.workers)*sp.wall)
		ps = append(ps, r.st.Profiles...)
	}
	want := countSim(ps).Launches
	m.ops.check(int64(v["gpu.launches"]) == want, "serve_mix traced priming: %.0f launch spans, want %d", v["gpu.launches"], want)
	sim := countSim(ps)
	v["sim.modeled_ms"] = sim.ModeledMs
	v["sim.warp_insts"] = float64(sim.WarpInsts)
	// Priming probes were all misses; the cache metrics below cover the
	// server's reads during the traffic.
	for _, k := range []string{"cache.probe_s", "cache.probes", "cache.hits"} {
		delete(v, k)
	}

	cold, err := coldSweeps(cache, p.workers, mixBlocks*coldSweepsPerBlock, newVerifier(ref.ServeBodies), &m.ops)
	if err != nil {
		return nil, err
	}
	v["host.cold_wall_s"] = cold.wall

	half := time.Duration(cfg.seconds) * time.Second / 2
	plainSrv, err := startServer(cache, p.workers)
	if err != nil {
		return nil, err
	}
	before := readGoStats()
	plain := runMix(plainSrv, newClients(cfg.seed, p.clients, ref.ServeBodies), time.Now().Add(half), nil)
	putGoDelta(v, before)
	v["host.warm_wall_p50_ms"] = 1e3 * plain.lat.quantile(0.5)
	v["host.warm_wall_p90_ms"] = 1e3 * plain.lat.quantile(0.9)
	if err := plainSrv.close(); err != nil {
		return nil, err
	}

	ls, err := startServer(cache, p.workers)
	if err != nil {
		return nil, err
	}
	t0 := telemetry.Now()
	traced := runMix(ls, newClients(cfg.seed, p.clients, ref.ServeBodies), time.Now().Add(half), spans)
	t1 := telemetry.Now()
	ctr := ls.srv.Registry().Counters()
	if err := ls.close(); err != nil {
		return nil, err
	}
	m.ops.add(plain.ops)
	m.ops.add(traced.ops)

	v["trace.overhead_frac"] = (traced.lat.mean() - plain.lat.mean()) / plain.lat.mean()
	fmt.Fprintf(errOut, "hostbench: tracing overhead: traced mean request %.4f ms, untraced %.4f ms (%+.1f%%)\n",
		1e3*traced.lat.mean(), 1e3*plain.lat.mean(), 100*v["trace.overhead_frac"])

	events = spans.rec.Events()
	handler := map[string][]float64{}
	var handlerS float64
	for _, ev := range hostEvents(events, t0, t1) {
		if ev.Cat == "server" {
			handler[ev.Name] = append(handler[ev.Name], ev.Dur)
			handlerS += ev.Dur
		}
	}
	for _, k := range []string{"profile", "roofline", "explain", "compare", "batch"} {
		v["server."+k+"_p50_ms"] = 1e3 * median(handler[k])
	}
	hits := ctr.Get(telemetry.CtrServeLRUHits)
	misses := ctr.Get(telemetry.CtrServeLRUMisses)
	if hits+misses > 0 {
		v["server.lru_hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	v["server.flight_shared"] = float64(ctr.Get(telemetry.CtrServeFlightShared))
	v["server.resp_kb"] = float64(traced.bytes) / float64(traced.lat.n) / 1024
	probes := ctr.Get(telemetry.CtrCacheHits) + ctr.Get(telemetry.CtrCacheMisses)
	v["cache.probes"] = float64(probes)
	if probes > 0 {
		v["cache.hit_ratio"] = float64(ctr.Get(telemetry.CtrCacheHits)) / float64(probes)
	}
	// The server's disk reads happen inside its handlers, where the
	// benchmark has no span; charge each one the median of probing the
	// same entries directly.
	probe, err := timeProbes(cache)
	if err != nil {
		return nil, err
	}
	v["cache.probe_s"] = float64(probes) * probe

	total := layerTimes{}
	for c := 0; c < p.clients; c++ {
		l, cover := laneCover(events, clientLane+c, t0, t1)
		unaccounted = max(unaccounted, checkCoverage(&m.ops, fmt.Sprintf("serve_mix client %d lane", c), cover))
		for k, s := range l {
			total[k] += s
		}
	}
	lanes := float64(p.clients) * (t1 - t0)
	layerTimes{
		"server handler (server, LRU, cache, render)": handlerS,
		"benchmark client (draw, verify)":             total["client"],
		"unaccounted":                                 lanes - total.total(),
	}.print(errOut, fmt.Sprintf("serve_mix traffic, %d client lanes", p.clients), lanes)
	fmt.Fprintf(errOut, "hostbench: serve_mix: of the handler time, cache reads (estimated) %.4f s\n", v["cache.probe_s"])
	v["trace.unaccounted_frac"] = unaccounted
	return m, spans.write(traceDir(cfg), fmt.Sprintf("serve_mix-seed%d", cfg.seed), errOut)
}

// timeProbes returns the median seconds of one ProfileCache.Probe over
// every primed entry.
func timeProbes(cache *core.ProfileCache) (float64, error) {
	var times []float64
	for rep := 0; rep < 3; rep++ {
		for _, dev := range []gpu.DeviceConfig{gpu.RTX3080(), gpu.GTX1080()} {
			for _, w := range core.BaselineWorkloads() {
				start := time.Now()
				_, outcome := cache.Probe(w, dev)
				times = append(times, time.Since(start).Seconds())
				if outcome != core.CacheHit {
					return 0, fmt.Errorf("serve_mix: primed entry %s on %s: %v", w.Abbr(), dev.Name, outcome)
				}
			}
		}
	}
	return median(times), nil
}

// recordServe primes a cache, then asks a server for every distinct query
// once: each must answer 200, and its body digest becomes the reference.
func recordServe(dir string) (simCounts, map[string]string, error) {
	cache, runs, err := servePrime(filepath.Join(dir, "serve"), 1, nil)
	if err != nil {
		return simCounts{}, nil, err
	}
	var ps []*core.Profile
	var launches int64
	for _, r := range runs {
		ps = append(ps, r.st.Profiles...)
		launches += r.launches
	}
	sim := countSim(ps)
	if launches != sim.Launches {
		return simCounts{}, nil, fmt.Errorf("serve_mix: devices counted %d launches, profiles hold %d", launches, sim.Launches)
	}
	ls, err := startServer(cache, 1)
	if err != nil {
		return simCounts{}, nil, err
	}
	bodies := map[string]string{}
	for _, q := range allQueries(baselineAbbrs()) {
		code, body, err := ls.fetch(context.Background(), q)
		if err != nil || code != http.StatusOK {
			_ = ls.close()
			return simCounts{}, nil, fmt.Errorf("serve_mix: %s: status %d, err %v", q.key(), code, err)
		}
		c, err := canonical(q.bodyFormat(), body)
		if err != nil {
			_ = ls.close()
			return simCounts{}, nil, fmt.Errorf("serve_mix: %s: %w", q.key(), err)
		}
		bodies[q.key()] = digest(c)
	}
	return sim, bodies, ls.close()
}
