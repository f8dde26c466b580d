package lint

import (
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// fixtureCases pairs each analyzer with its fixture package. The asPath puts
// the fixture inside (or outside) the analyzer's scope without moving files.
var fixtureCases = []struct {
	dir      string
	asPath   string
	analyzer *Analyzer
}{
	{"nodeterminism", "repro/internal/core/fixture", NoDeterminism},
	{"finiteflow", "repro/internal/telemetry/fixture", FiniteFlow},
	{"errcheckstrict", "repro/cmd/fixture", ErrCheckStrict},
	{"unitsafety", "repro/internal/gpu/fixture", UnitSafety},
}

// wantRe extracts the quoted substrings of a `// want "..." "..."` comment.
var wantRe = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

type wantKey struct {
	file string
	line int
}

// collectWants parses `// want "substr"` comments out of a fixture package.
func collectWants(t *testing.T, pkg *Package) map[wantKey][]string {
	t.Helper()
	wants := make(map[wantKey][]string)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				idx := strings.Index(text, "want ")
				if idx < 0 {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				key := wantKey{file: filepath.Base(pos.Filename), line: pos.Line}
				for _, m := range wantRe.FindAllStringSubmatch(text[idx:], -1) {
					wants[key] = append(wants[key], m[1])
				}
			}
		}
	}
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no // want comments", pkg.Path)
	}
	return wants
}

// TestAnalyzerFixtures checks every analyzer against its fixture: each
// `// want` comment must produce a finding on that line, and no finding may
// appear without one. The unguarded fixture lines double as false-positive
// coverage, and each fixture carries a //lint:ignore suppression that must
// hold.
func TestAnalyzerFixtures(t *testing.T) {
	loader := newFixtureLoader(filepath.Join("testdata", "src"))
	for _, tc := range fixtureCases {
		t.Run(tc.dir, func(t *testing.T) {
			pkg, err := loader.load(tc.dir, tc.asPath)
			if err != nil {
				t.Fatalf("load fixture: %v", err)
			}
			findings := Run([]*Package{pkg}, []*Analyzer{tc.analyzer})
			wants := collectWants(t, pkg)
			for _, f := range findings {
				key := wantKey{file: filepath.Base(f.Pos.Filename), line: f.Pos.Line}
				matched := -1
				for i, w := range wants[key] {
					if strings.Contains(f.Message, w) {
						matched = i
						break
					}
				}
				if matched < 0 {
					t.Errorf("unexpected finding: %s", f)
					continue
				}
				wants[key] = append(wants[key][:matched], wants[key][matched+1:]...)
			}
			for key, rest := range wants {
				for _, w := range rest {
					t.Errorf("missing finding at %s:%d matching %q", key.file, key.line, w)
				}
			}
		})
	}
}

// TestScopePredicates verifies the analyzers' scoping: loading the same
// nodeterminism fixture under a path outside the model packages must produce
// zero findings.
func TestScopePredicates(t *testing.T) {
	t.Run("nodeterminism-out-of-scope", func(t *testing.T) {
		loader := newFixtureLoader(filepath.Join("testdata", "src"))
		pkg, err := loader.load("nodeterminism", "example.com/outside/model")
		if err != nil {
			t.Fatalf("load fixture: %v", err)
		}
		if findings := Run([]*Package{pkg}, []*Analyzer{NoDeterminism}); len(findings) != 0 {
			t.Errorf("out-of-scope package produced findings: %v", findings)
		}
	})
}

// TestMalformedSuppression checks that a reasonless //lint:ignore directive
// is itself reported and does not suppress the finding under it, and that a
// directive naming an unregistered analyzer is reported too (checked against
// the full registry even when Run gets a subset) and kept out of the
// suppression inventory.
func TestMalformedSuppression(t *testing.T) {
	loader := newFixtureLoader(filepath.Join("testdata", "src"))
	pkg, err := loader.load("malformed", "repro/cmd/malformed")
	if err != nil {
		t.Fatalf("load fixture: %v", err)
	}
	findings := Run([]*Package{pkg}, []*Analyzer{ErrCheckStrict})
	var sawMalformed, sawUnknown, sawNodeterminism bool
	drops := 0
	for _, f := range findings {
		switch {
		case f.Analyzer == "lint" && strings.Contains(f.Message, "malformed suppression"):
			sawMalformed = true
		case f.Analyzer == "lint" && strings.Contains(f.Message, `unknown analyzer "golife"`):
			sawUnknown = true
		case f.Analyzer == "lint" && strings.Contains(f.Message, "nodeterminism"):
			sawNodeterminism = true
		case f.Analyzer == "errcheckstrict":
			drops++
		}
	}
	if !sawMalformed {
		t.Errorf("missing malformed-suppression finding; got %v", findings)
	}
	if !sawUnknown {
		t.Errorf("missing unknown-analyzer finding; got %v", findings)
	}
	if sawNodeterminism {
		t.Errorf("a registered analyzer outside the -run subset was reported as unknown; got %v", findings)
	}
	if drops != 2 {
		t.Errorf("got %d errcheckstrict findings, want 2: neither directive may suppress the finding below it; got %v", drops, findings)
	}
	sups := CollectSuppressions([]*Package{pkg})
	if len(sups) != 1 || sups[0].Analyzer != "nodeterminism" {
		t.Errorf("inventory = %v, want only the registered nodeterminism directive", sups)
	}
}

// TestFindingString pins the file:line: analyzer: message output format.
func TestFindingString(t *testing.T) {
	f := Finding{Analyzer: "nodeterminism", Message: "call to time.Now"}
	f.Pos.Filename = "internal/core/core.go"
	f.Pos.Line = 42
	const want = "internal/core/core.go:42: nodeterminism: call to time.Now"
	if got := f.String(); got != want {
		t.Errorf("Finding.String() = %q, want %q", got, want)
	}
}

// TestSuppressionBudget pins the repository's //lint:ignore inventory: the
// CI gate that makes adding an exception a reviewed, counted act. When this
// fails after adding a deliberate suppression, list the inventory with
// `go run ./cmd/cactuslint -suppressions ./...`, confirm each reason still
// holds, and bump the budget in the same commit. Skipped in -short mode
// because it type-checks the full repository.
func TestSuppressionBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("full-repo suppression inventory is not short")
	}
	pkgs := repoPackages(t)
	sups := CollectSuppressions(pkgs)
	const budget = 6 // all nodeterminism: wall time in telemetry, the CLI pipeline and server request latency
	if len(sups) != budget {
		for _, s := range sups {
			t.Logf("suppression: %s", s)
		}
		t.Errorf("repository has %d //lint:ignore suppressions, budget pins %d; review the inventory above and adjust the budget deliberately", len(sups), budget)
	}
	for _, s := range sups {
		if s.Reason == "" {
			t.Errorf("suppression without a reason at %s:%d", s.Pos.Filename, s.Pos.Line)
		}
	}
}

// TestRepoIsClean runs every analyzer over the whole module and requires
// zero findings: the invariants hold at HEAD. Skipped in -short mode because
// it type-checks the full repository.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-repo lint is not short")
	}
	if findings := Run(repoPackages(t), Analyzers()); len(findings) != 0 {
		for _, f := range findings {
			t.Errorf("finding at HEAD: %s", f)
		}
	}
}

// repoOnce caches the full-repo load: type-checking the module against
// export data is by far the most expensive step, and every full-repo test
// and benchmark shares one immutable package set.
var repoOnce struct {
	sync.Once
	pkgs []*Package
	err  error
}

func repoPackages(tb testing.TB) []*Package {
	tb.Helper()
	repoOnce.Do(func() {
		repoOnce.pkgs, repoOnce.err = Load(filepath.Join("..", ".."), "./...")
	})
	if repoOnce.err != nil {
		tb.Fatalf("load repo: %v", repoOnce.err)
	}
	return repoOnce.pkgs
}

// BenchmarkLintRepo measures one full analyzer run over the
// already-loaded repository: the marginal cost of linting once packages are
// type-checked.
//
// Reference on a 2-vCPU Intel Xeon VM (go test -bench LintRepo -benchtime 5x -count 3):
//
//	ten analyzers plus the shared whole-program call graph: 103–137ms/op
//	the four analyzers kept (nodeterminism, finiteflow, errcheckstrict, unitsafety): 9–11ms/op
func BenchmarkLintRepo(b *testing.B) {
	pkgs := repoPackages(b)
	analyzers := Analyzers()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if findings := Run(pkgs, analyzers); len(findings) != 0 {
			b.Fatalf("repo not clean: %v", findings[0])
		}
	}
}
