package repro

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/profiler"
	"repro/internal/trace"
)

// coldStudy characterizes the full catalog serially with a fresh cache
// rooted at dir, so every profile is simulated from scratch and its JSON
// serialization lands on disk.
func coldStudy(t *testing.T, dir string) *core.Study {
	t.Helper()
	cat, err := core.DefaultCatalog()
	if err != nil {
		t.Fatal(err)
	}
	cache, err := core.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	st, err := core.NewStudyWith(gpu.RTX3080(), core.StudyOptions{Workers: 1, Cache: cache}, cat.All()...)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// readTree returns path -> contents for every file under root, with paths
// relative to root.
func readTree(t *testing.T, root string) map[string][]byte {
	t.Helper()
	files := make(map[string][]byte)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		files[rel] = data
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// studyCSV renders a study as a full-precision CSV (the report layer's
// serialization), so formatting-level nondeterminism is caught too.
func studyCSV(t *testing.T, st *core.Study) []byte {
	t.Helper()
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	var rows [][]string
	for _, p := range st.Profiles {
		rows = append(rows, []string{p.Abbr(), "", g(p.TotalTime.Float()), g(p.AggII), g(p.AggGIPS)})
		for _, k := range p.Kernels {
			rows = append(rows, []string{p.Abbr(), k.Name, g(k.TimeShare.Float()), g(k.II()), g(k.GIPS())})
		}
	}
	var buf bytes.Buffer
	if err := writeCSV(&buf, []string{"workload", "kernel", "time", "ii", "gips"}, rows); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// writeCSV emits header+rows as comma-separated values, quoting cells that
// contain commas or quotes.
func writeCSV(w io.Writer, header []string, rows [][]string) error {
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	writeLine := func(cells []string) error {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = esc(c)
		}
		_, err := io.WriteString(w, strings.Join(parts, ",")+"\n")
		return err
	}
	if err := writeLine(header); err != nil {
		return err
	}
	for _, r := range rows {
		if err := writeLine(r); err != nil {
			return err
		}
	}
	return nil
}

func TestWriteCSV(t *testing.T) {
	var b strings.Builder
	err := writeCSV(&b, []string{"a", "b"}, [][]string{{"x,y", `q"q`}, {"1", "2"}})
	if err != nil {
		t.Fatal(err)
	}
	if want := "a,b\n\"x,y\",\"q\"\"q\"\n1,2\n"; b.String() != want {
		t.Errorf("writeCSV = %q, want %q", b.String(), want)
	}
}

// TestStudyByteDeterminism runs the full characterization twice — cold and
// serial both times — and requires the results to be byte-identical at both
// serialization boundaries: the cached profile JSON entries and the rendered
// report CSV. This is the regression test behind the nodeterminism and
// finiteflow analyzers: any wall-clock read, global random source, or
// map-ordered emission in model code shows up here as a byte diff. The
// rendered `cactus all` output is also pinned across commits, to the
// digest hostbench checks.
func TestStudyByteDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("two full-catalog characterizations")
	}
	dirA, dirB := t.TempDir(), t.TempDir()
	stA := coldStudy(t, dirA)
	stB := coldStudy(t, dirB)

	filesA, filesB := readTree(t, dirA), readTree(t, dirB)
	if len(filesA) == 0 {
		t.Fatal("first run produced no cache entries")
	}
	if len(filesA) != len(filesB) {
		t.Fatalf("run A wrote %d cache entries, run B wrote %d", len(filesA), len(filesB))
	}
	for rel, a := range filesA {
		b, ok := filesB[rel]
		if !ok {
			t.Errorf("cache entry %s missing from run B", rel)
			continue
		}
		if !bytes.Equal(a, b) {
			t.Errorf("cache entry %s differs between identical runs", rel)
		}
	}

	if a, b := studyCSV(t, stA), studyCSV(t, stB); !bytes.Equal(a, b) {
		t.Error("report CSV differs between identical runs")
	}

	// Across commits: the `cactus all` rendering must hash to the digest
	// the benchmark checks its study output against.
	data, err := os.ReadFile(filepath.Join("hostbench", "reference.json"))
	if err != nil {
		t.Fatal(err)
	}
	var ref struct {
		StudyOutput string `json:"study_all_output_sha256"`
	}
	if err := json.Unmarshal(data, &ref); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(renderAll(t, stA))
	if got := hex.EncodeToString(sum[:]); got != ref.StudyOutput {
		t.Errorf("cactus all output sha256 = %s, want %s (hostbench/reference.json)", got, ref.StudyOutput)
	}
}

// renderAll renders st as `cactus all` prints it after its study: figures
// 1-9 and Table 1, with the default six clusters.
func renderAll(t *testing.T, st *core.Study) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, render := range []func() error{
		func() error { return core.Figure1(&buf) },
		func() error { return core.Figure2(st, &buf) },
		func() error { return core.Table1(st, &buf) },
		func() error { return core.Figure3(st, &buf) },
		func() error { return core.Figure4(st, &buf) },
		func() error { return core.Figure5(st, &buf) },
		func() error { return core.Figure6(st, &buf) },
		func() error { return core.Figure7(st, &buf) },
		func() error { return core.Figure8(st, &buf) },
		func() error { return core.Figure9(st, &buf, 6) },
	} {
		if err := render(); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestTraceExportByteDeterminism runs one workload twice through the trace
// exporter and requires byte-identical line-delimited JSON.
func TestTraceExportByteDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("workload characterization")
	}
	cat, err := core.DefaultCatalog()
	if err != nil {
		t.Fatal(err)
	}
	w, err := cat.Lookup("GMS")
	if err != nil {
		t.Fatal(err)
	}
	export := func() []byte {
		dev, err := gpu.New(gpu.RTX3080())
		if err != nil {
			t.Fatal(err)
		}
		sess := profiler.NewSession(dev)
		if err := w.Run(sess); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := trace.Export(&buf, w.Abbr(), gpu.RTX3080(), sess); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if a, b := export(), export(); !bytes.Equal(a, b) {
		t.Error("trace export differs between identical runs")
	}
}
