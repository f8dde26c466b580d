package main

import (
	"encoding/json"
	"io"
	"strings"
	"testing"

	"repro/internal/lint"
)

// allAnalyzers is every analyzer name, in the sorted order -list prints.
var allAnalyzers = []string{"errcheckstrict", "finiteflow", "nodeterminism", "unitsafety"}

func TestListFlagNamesEveryAnalyzer(t *testing.T) {
	var out strings.Builder
	code, err := run([]string{"-list"}, &out, io.Discard)
	if err != nil || code != 0 {
		t.Fatalf("run(-list) = %d, %v", code, err)
	}
	last := -1
	for _, name := range allAnalyzers {
		idx := strings.Index(out.String(), name)
		if idx < 0 {
			t.Errorf("-list output omits %q:\n%s", name, out.String())
			continue
		}
		if idx < last {
			t.Errorf("-list output not sorted by name: %q appears before its predecessor", name)
		}
		last = idx
	}
	if !strings.Contains(out.String(), "scope: ") {
		t.Errorf("-list output carries no scope lines:\n%s", out.String())
	}
}

// TestListJSON pins the -list -json wire shape: one {"name","scope","doc"}
// object per analyzer, sorted by name.
func TestListJSON(t *testing.T) {
	var out strings.Builder
	code, err := run([]string{"-list", "-json"}, &out, io.Discard)
	if err != nil || code != 0 {
		t.Fatalf("run(-list -json) = %d, %v", code, err)
	}
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	if len(lines) != len(allAnalyzers) {
		t.Fatalf("-list -json printed %d lines, want %d:\n%s", len(lines), len(allAnalyzers), out.String())
	}
	for i, line := range lines {
		var row struct {
			Name  string `json:"name"`
			Scope string `json:"scope"`
			Doc   string `json:"doc"`
		}
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			t.Fatalf("line %d is not JSON: %v\n%s", i, err, line)
		}
		if row.Name != allAnalyzers[i] {
			t.Errorf("line %d name = %q, want %q", i, row.Name, allAnalyzers[i])
		}
		if row.Scope == "" || row.Doc == "" {
			t.Errorf("line %d has empty scope or doc: %s", i, line)
		}
	}
}

func TestUnknownAnalyzer(t *testing.T) {
	code, err := run([]string{"-run", "nope"}, io.Discard, io.Discard)
	if err == nil || code != 2 {
		t.Fatalf("run(-run nope) = %d, %v; want code 2 and an error", code, err)
	}
}

// TestRunFlagSelects runs named analyzers over a clean package: the -run
// selection path must load, run, and exit 0.
func TestRunFlagSelects(t *testing.T) {
	var out strings.Builder
	code, err := run([]string{"-run", "nodeterminism,unitsafety", "repro/internal/units"}, &out, io.Discard)
	if err != nil || code != 0 {
		t.Fatalf("run(-run nodeterminism,unitsafety) = %d, %v\n%s", code, err, out.String())
	}
	if out.Len() != 0 {
		t.Errorf("clean package produced output:\n%s", out.String())
	}
}

// TestJSONLineShape pins the -json wire format one problem-matcher regexp
// consumes: exactly {"file":...,"line":...,"analyzer":...,"message":...}
// per line, with JSON escaping applied to the message.
func TestJSONLineShape(t *testing.T) {
	var out strings.Builder
	f := lint.Finding{Analyzer: "unitsafety", Message: `bare numeric literal "2.5"`}
	f.Pos.Line = 42
	if err := printJSON(&out, "internal/gpu/launch.go", f); err != nil {
		t.Fatal(err)
	}
	const want = `{"file":"internal/gpu/launch.go","line":42,"analyzer":"unitsafety","message":"bare numeric literal \"2.5\""}` + "\n"
	if out.String() != want {
		t.Errorf("printJSON = %q, want %q", out.String(), want)
	}
}

// TestJSONCleanPackage runs the real pipeline with -json over a package
// that is clean at HEAD: exit code 0 and no output lines.
func TestJSONCleanPackage(t *testing.T) {
	var out strings.Builder
	code, err := run([]string{"-json", "repro/internal/units"}, &out, io.Discard)
	if err != nil || code != 0 {
		t.Fatalf("run = %d, %v\n%s", code, err, out.String())
	}
	if out.Len() != 0 {
		t.Errorf("clean package produced output:\n%s", out.String())
	}
}

// TestSuppressionsMode pins the -suppressions inventory over a package with
// known directives: deterministic file:line: analyzer: reason lines, exit
// code 0, and the JSON variant's wire shape.
func TestSuppressionsMode(t *testing.T) {
	var out strings.Builder
	code, err := run([]string{"-suppressions", "repro/internal/server"}, &out, io.Discard)
	if err != nil || code != 0 {
		t.Fatalf("run = %d, %v\n%s", code, err, out.String())
	}
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("internal/server has 2 suppressions, -suppressions listed %d:\n%s", len(lines), out.String())
	}
	for _, line := range lines {
		if !strings.Contains(line, "nodeterminism: request latency") {
			t.Errorf("-suppressions line is not the request-latency nodeterminism directive: %s", line)
		}
	}
	if !strings.Contains(lines[0], "internal/server/handlers.go:") {
		t.Errorf("suppressions not in file order:\n%s", out.String())
	}

	var jsonOut strings.Builder
	code, err = run([]string{"-suppressions", "-json", "repro/internal/server"}, &jsonOut, io.Discard)
	if err != nil || code != 0 {
		t.Fatalf("run(-json) = %d, %v", code, err)
	}
	first := strings.SplitN(jsonOut.String(), "\n", 2)[0]
	for _, field := range []string{`"file":`, `"line":`, `"analyzer":`, `"reason":`} {
		if !strings.Contains(first, field) {
			t.Errorf("-suppressions -json line missing %s: %s", field, first)
		}
	}
}
