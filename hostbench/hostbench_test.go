package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/url"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

func testRef(t *testing.T) *reference {
	t.Helper()
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// The same seed must give the same request sequence, and another seed
// another one.
func TestGeneratorDeterministic(t *testing.T) {
	draw := func(seed int64, client int) []query {
		g := newGenerator(seed, client, baselineAbbrs())
		var qs []query
		for i := 0; i < 2000; i++ {
			qs = append(qs, g.next())
		}
		return qs
	}
	if !reflect.DeepEqual(draw(7, 0), draw(7, 0)) {
		t.Fatal("seed 7 gave two different sequences")
	}
	if reflect.DeepEqual(draw(7, 0), draw(8, 0)) {
		t.Fatal("seeds 7 and 8 gave the same sequence")
	}
	if reflect.DeepEqual(draw(7, 0), draw(7, 1)) {
		t.Fatal("two clients of one seed gave the same sequence")
	}
}

// Every generated query must name a recorded response, and its workload
// must reach the server unchanged: rd-b+tree, unescaped, decodes to
// "rd-b tree" and answers 404.
func TestQueriesEscaped(t *testing.T) {
	ref := testRef(t)
	for seed := int64(1); seed <= 5; seed++ {
		g := newGenerator(seed, 0, baselineAbbrs())
		for i := 0; i < 5000; i++ {
			q := g.next()
			singles := q.items
			if q.kind != "batch" {
				singles = []query{q}
			}
			for _, s := range singles {
				if _, ok := ref.ServeBodies[s.key()]; !ok {
					t.Fatalf("seed %d: query %q has no reference digest", seed, s.key())
				}
			}
			if q.kind == "batch" {
				continue
			}
			req, err := q.request(context.Background(), "http://localhost")
			if err != nil {
				t.Fatal(err)
			}
			want := q.workload
			if q.kind == "compare" {
				want += "," + q.pair
			}
			if got := req.URL.Query().Get("workload"); got != want {
				t.Fatalf("workload %q arrives as %q", want, got)
			}
		}
	}
	unescaped, _ := url.ParseQuery("workload=rd-b+tree")
	if unescaped.Get("workload") != "rd-b tree" {
		t.Fatal("the unescaped form no longer shows the decoding this test guards against")
	}
}

// Every query the generator draws is answered 200 with the recorded body,
// batches included.
func TestEveryQueryAnswered(t *testing.T) {
	ref := testRef(t)
	cache, _, err := servePrime(t.TempDir(), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := startServer(cache, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := ls.close(); err != nil {
			t.Error(err)
		}
	}()
	ver := newVerifier(ref.ServeBodies)
	for seed := int64(1); seed <= 3; seed++ {
		g := newGenerator(seed, 0, baselineAbbrs())
		for i := 0; i < 300; i++ {
			q := g.next()
			code, body, err := ls.fetch(context.Background(), q)
			if err != nil || code != http.StatusOK {
				t.Fatalf("%+v: status %d, err %v", q, code, err)
			}
			if !ver.check(q, body) {
				t.Fatalf("%+v: body differs from the reference", q)
			}
		}
	}
	st := runMix(ls, newClients(9, 2, ref.ServeBodies), time.Now().Add(300*time.Millisecond), nil)
	if st.ops.failed != 0 || st.ops.attempted == 0 {
		t.Fatalf("mix: %d of %d failed: %v", st.ops.failed, st.ops.attempted, st.ops.failures)
	}
}

// A perturbed output, body or statistic must count as a failed operation.
func TestPerturbedOutputCaught(t *testing.T) {
	ref := testRef(t)
	cache, _, err := servePrime(t.TempDir(), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := startServer(cache, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := ls.close(); err != nil {
			t.Error(err)
		}
	}()
	for _, q := range []query{
		{kind: "profile", workload: "rd-b+tree", device: "rtx3080", format: "json"},
		{kind: "explain", workload: "pb-sgemm", device: "gtx1080", format: "text"},
		{kind: "batch", items: []query{{kind: "roofline", workload: "AN", device: "rtx3080", format: "json"}}},
	} {
		_, body, err := ls.fetch(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if !newVerifier(ref.ServeBodies).check(q, body) {
			t.Fatalf("%+v: unperturbed body rejected", q)
		}
		bad := bytes.Replace(body, []byte("1"), []byte("2"), 1)
		if newVerifier(ref.ServeBodies).check(q, bad) {
			t.Fatalf("%+v: perturbed body accepted", q)
		}
		ver := newVerifier(ref.ServeBodies)
		ver.check(q, body)
		if q.kind != "batch" && ver.check(q, bad) {
			t.Fatalf("%+v: perturbed body accepted after a verified one", q)
		}
	}

	out := &outputCheck{want: digest([]byte("figure"))}
	var ops tally
	ops.check(out.ok([]byte("figure")), "first")
	ops.check(out.ok([]byte("figure")), "repeat")
	ops.check(out.ok([]byte("figurE")), "perturbed")
	if ops.attempted != 3 || ops.failed != 1 || !strings.Contains(ops.failures[0], "perturbed") {
		t.Fatalf("tally %+v: want exactly the perturbed output failed", ops)
	}
	sim := ref.StudySim
	sim.Launches++
	if sim == ref.StudySim {
		t.Fatal("a changed launch count compares equal")
	}
}

// A workload needing more busy goroutines than usable cores is refused.
func TestCoreGuard(t *testing.T) {
	for _, tc := range []struct {
		workload string
		env      environment
		refuse   bool
	}{
		{"study_all", environment{NumCPU: 2, GOMAXPROCS: 2}, false},
		{"study_all", environment{NumCPU: 2, GOMAXPROCS: 1}, true},
		{"study_all", environment{NumCPU: 1, GOMAXPROCS: 1}, false},
		{"serve_mix", environment{NumCPU: 2, GOMAXPROCS: 2}, false},
		{"serve_mix", environment{NumCPU: 2, GOMAXPROCS: 1}, true},
		{"serve_mix", environment{NumCPU: 8, GOMAXPROCS: 2}, false},
	} {
		_, err := plannedGoroutines(tc.workload, tc.env)
		if (err != nil) != tc.refuse {
			t.Errorf("%s on %+v: err %v, want refused %v", tc.workload, tc.env, err, tc.refuse)
		}
	}
	// A refused run prints no result line.
	if runtime.NumCPU() < 2 {
		t.Skip("GOMAXPROCS below nproc needs two CPUs")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var out bytes.Buffer
	code := benchMain([]string{"--workload", "study_all", "--workdir", t.TempDir()}, &out, io.Discard)
	if code == 0 || out.Len() != 0 {
		t.Errorf("refused run: exit %d, stdout %q", code, out.String())
	}
}

// The latency histogram's quantiles stay within its 1% bucket width and
// its count and mean are exact.
func TestLatHist(t *testing.T) {
	var h, other latHist
	for i := 1; i <= 1000; i++ {
		h.add(float64(i) * 1e-6)
		other.add(float64(i) * 1e-3)
	}
	h.merge(&other)
	for _, tc := range []struct{ q, want float64 }{{0.25, 500e-6}, {0.5, 1e-3}, {0.9, 0.8}, {0.99, 0.98}} {
		if got := h.quantile(tc.q); got < tc.want*0.99 || got > tc.want*1.01 {
			t.Errorf("q%.2f = %g, want %g within 1%%", tc.q, got, tc.want)
		}
	}
	if want := 500500 * (1e-6 + 1e-3) / 2000; h.n != 2000 || h.mean() < want*(1-1e-9) || h.mean() > want*(1+1e-9) {
		t.Errorf("n %d mean %g, want 2000 and %g", h.n, h.mean(), want)
	}
	var empty latHist
	if empty.quantile(0.5) != 0 || empty.mean() != 0 {
		t.Error("an empty histogram reads other than 0")
	}
}
