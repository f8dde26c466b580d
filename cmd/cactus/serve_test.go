package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/server"
)

// TestServerMatchesCLIBytes — the server's text renderings must be
// byte-identical to the CLI commands they mirror; both sides call the same
// core renderers, and this pins that equivalence end to end.
func TestServerMatchesCLIBytes(t *testing.T) {
	srv, err := server.New(server.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d\n%s", path, resp.StatusCode, body)
		}
		return body
	}

	cases := []struct {
		name string
		args []string
		path string
	}{
		{"profile", []string{"-no-cache", "profile", "pb-sgemm"},
			"/api/v1/profile?workload=pb-sgemm&format=text"},
		{"profile gtx1080", []string{"-no-cache", "-device", "gtx1080", "profile", "pb-spmv"},
			"/api/v1/profile?workload=pb-spmv&device=gtx1080&format=text"},
		{"list", []string{"list"},
			"/api/v1/workloads?format=text"},
		{"compare", []string{"-no-cache", "-j", "1", "compare", "pb-sgemm", "pb-spmv"},
			"/api/v1/compare?workload=pb-sgemm,pb-spmv&format=text"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var cli bytes.Buffer
			if err := run(tc.args, &cli, io.Discard); err != nil {
				t.Fatal(err)
			}
			if got := get(tc.path); !bytes.Equal(cli.Bytes(), got) {
				t.Errorf("server bytes differ from CLI output\nCLI:\n%s\nserver:\n%s", cli.Bytes(), got)
			}
		})
	}
}

// lockedBuffer lets the test read stderr while serveCmd writes it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestServeCommandEndToEnd boots `cactus serve` on an ephemeral port,
// queries it over real HTTP, then delivers SIGINT and requires a clean
// drain.
func TestServeCommandEndToEnd(t *testing.T) {
	var errOut lockedBuffer
	done := make(chan error, 1)
	go func() {
		done <- serveCmd([]string{"-addr", "127.0.0.1:0"}, core.StudyOptions{Workers: 2}, nil, &errOut)
	}()

	// The listening line carries the resolved ephemeral address.
	var base string
	deadline := time.Now().Add(30 * time.Second)
	for base == "" {
		if time.Now().After(deadline) {
			t.Fatalf("server never announced its address; stderr:\n%s", errOut.String())
		}
		for _, line := range strings.Split(errOut.String(), "\n") {
			if rest, ok := strings.CutPrefix(line, "cactus serve: listening on "); ok {
				base = rest
			}
		}
		time.Sleep(5 * time.Millisecond)
	}

	for _, path := range []string{
		"/healthz",
		"/api/v1/profile?workload=pb-sgemm",
		"/metrics",
	} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d\n%s", path, resp.StatusCode, body)
		}
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve exited with: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("serve did not drain within 30s of SIGINT")
	}
	if !strings.Contains(errOut.String(), "cactus serve: shutting down") {
		t.Errorf("stderr missing the shutdown line:\n%s", errOut.String())
	}
}
