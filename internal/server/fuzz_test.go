package server

import (
	"net/http"
	"net/url"
	"testing"

	"repro/internal/core"
)

// FuzzParseQuery — the HTTP boundary's parameter validation must, for any
// workload/device/format values, either produce a servable query or a
// well-formed 400/404; never panic, never pass an unknown device or
// workload through.
func FuzzParseQuery(f *testing.F) {
	cat, err := core.DefaultCatalog()
	if err != nil {
		f.Fatal(err)
	}
	f.Add("pb-sgemm", "rtx3080", "json")
	f.Add("pb-sgemm", "gtx1080", "text")
	f.Add("", "", "")
	f.Add("XYZ", "voodoo3", "xml")
	f.Add("pb-sgemm,GMS", "rtx3080 ", "JSON")
	f.Add("../../etc/passwd", "rtx3080\x00", "te­xt")

	f.Fuzz(func(t *testing.T, workload, device, format string) {
		v := url.Values{}
		if workload != "" {
			v.Set("workload", workload)
		}
		if device != "" {
			v.Set("device", device)
		}
		if format != "" {
			v.Set("format", format)
		}
		q, aerr := parseQuery(v, cat, true)
		if aerr != nil {
			switch aerr.Status {
			case http.StatusBadRequest, http.StatusNotFound:
			default:
				t.Fatalf("parseQuery(%q, %q, %q): status %d, want 400 or 404",
					workload, device, format, aerr.Status)
			}
			if aerr.Msg == "" {
				t.Fatal("error with empty message")
			}
			return
		}
		if _, ok := devices[q.device]; !ok {
			t.Fatalf("accepted unknown device %q", q.device)
		}
		if q.format != "json" && q.format != "text" {
			t.Fatalf("accepted unknown format %q", q.format)
		}
		if q.workload == nil {
			t.Fatal("needWorkload accepted a query without a workload")
		}
		if w, err := cat.Lookup(q.workload.Abbr()); err != nil || w != q.workload {
			t.Fatalf("accepted workload %q that the catalog does not serve", q.workload.Abbr())
		}
	})
}
