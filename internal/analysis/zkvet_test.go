package analysis_test

import (
	"go/types"
	"strings"
	"testing"

	"zkphire/internal/analysis"
	"zkphire/internal/analysis/analysistest"
)

// fixturePath is a module-internal import path that is neither a
// proof-path package, internal/parallel, internal/ff, nor the service
// layer — the "anywhere else in the module" vantage point.
const fixturePath = "zkphire/internal/fixture"

func one(a *analysis.Analyzer) []*analysis.Analyzer { return []*analysis.Analyzer{a} }

func TestDeterminismFlagged(t *testing.T) {
	analysistest.Run(t, one(analysis.Determinism), "testdata/determinism/flagged", "zkphire/internal/transcript")
}

func TestDeterminismClean(t *testing.T) {
	analysistest.Run(t, one(analysis.Determinism), "testdata/determinism/clean", "zkphire/internal/transcript")
}

// TestDeterminismScope loads the flagged fixture outside the proof
// path, where none of its constructs matter for proof bytes.
func TestDeterminismScope(t *testing.T) {
	pkg := analysistest.Load(t, "testdata/determinism/flagged", fixturePath)
	diags, err := analysis.Run(pkg, one(analysis.Determinism))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("determinism fired outside the proof path: %s", d)
	}
}

// TestArenaPairFlagged and TestArenaPairClean hold the release rule's
// arena half: the scratch-buffer violations, and every sanctioned form.
func TestArenaPairFlagged(t *testing.T) {
	analysistest.Run(t, one(analysis.Release), "testdata/arenapair/flagged", fixturePath)
}

func TestArenaPairClean(t *testing.T) {
	analysistest.Run(t, one(analysis.Release), "testdata/arenapair/clean", fixturePath)
}

func TestNoRawGoFlagged(t *testing.T) {
	analysistest.Run(t, one(analysis.NoRawGo), "testdata/norawgo/flagged", fixturePath)
}

// TestNoRawGoClean: stage DAGs, budget fan-out, and externally resolved
// futures route every spawn through internal/parallel — no findings.
func TestNoRawGoClean(t *testing.T) {
	analysistest.Run(t, one(analysis.NoRawGo), "testdata/norawgo/clean", fixturePath)
}

// TestNoRawGoScope loads the same fixture as internal/parallel itself,
// the one package allowed to own goroutines.
func TestNoRawGoScope(t *testing.T) {
	pkg := analysistest.Load(t, "testdata/norawgo/flagged", "zkphire/internal/parallel")
	diags, err := analysis.Run(pkg, one(analysis.NoRawGo))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("norawgo fired inside internal/parallel: %s", d)
	}
}

func TestErrorPathFlagged(t *testing.T) {
	analysistest.Run(t, one(analysis.ErrorPath), "testdata/errorpath/flagged", "zkphire/internal/service")
}

func TestErrorPathClean(t *testing.T) {
	analysistest.Run(t, one(analysis.ErrorPath), "testdata/errorpath/clean", "zkphire/internal/service")
}

// TestErrorWrapScope checks the %w rule stays confined to the service
// layer: the same fixture elsewhere keeps its Unmarshal findings but
// loses the wrapping ones.
func TestErrorWrapScope(t *testing.T) {
	pkg := analysistest.Load(t, "testdata/errorpath/flagged", fixturePath)
	diags, err := analysis.Run(pkg, one(analysis.ErrorPath))
	if err != nil {
		t.Fatal(err)
	}
	sawUnmarshal := false
	for _, d := range diags {
		if strings.Contains(d.Message, "%w") {
			t.Errorf("wrapping rule fired outside the service layer: %s", d)
		}
		if strings.Contains(d.Message, "reachable from") {
			sawUnmarshal = true
		}
	}
	if !sawUnmarshal {
		t.Error("Unmarshal panic rule should apply module-wide, found nothing")
	}
}

// TestRecoverscopeFlagged holds the release rule's recover boundary,
// loaded as the service layer itself — the findings are the ones no
// package may contain.
func TestRecoverscopeFlagged(t *testing.T) {
	analysistest.Run(t, one(analysis.Release), "testdata/recoverscope/flagged", "zkphire/internal/service")
}

// TestRecoverscopeClean: the sanctioned recover boundary, also loaded as
// the service layer.
func TestRecoverscopeClean(t *testing.T) {
	analysistest.Run(t, one(analysis.Release), "testdata/recoverscope/clean", "zkphire/internal/service")
}

// TestRecoverscopeScope: the same clean fixture loaded anywhere else
// loses runGuarded's exemption — its recover becomes the one finding.
func TestRecoverscopeScope(t *testing.T) {
	pkg := analysistest.Load(t, "testdata/recoverscope/clean", fixturePath)
	diags, err := analysis.Run(pkg, one(analysis.Release))
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "job boundary") {
		t.Fatalf("clean fixture outside the service layer: got %d findings %v, want exactly runGuarded's recover", len(diags), diags)
	}
}

// TestRecoverscopeParallelExempt: internal/parallel implements the arena
// pool and is exempt from the release rule; recover is still policed
// there.
func TestRecoverscopeParallelExempt(t *testing.T) {
	recovers := 0
	for _, dir := range []string{"testdata/arenapair/flagged", "testdata/recoverscope/flagged"} {
		pkg := analysistest.Load(t, dir, "zkphire/internal/parallel")
		diags, err := analysis.Run(pkg, one(analysis.Release))
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range diags {
			if !strings.Contains(d.Message, "job boundary") {
				t.Errorf("release rule fired inside internal/parallel: %s", d)
			}
			recovers++
		}
	}
	if recovers != 2 {
		t.Errorf("want the fixture's 2 stray recovers reported inside internal/parallel, got %d", recovers)
	}
}

// TestIgnoreSuppressed: a well-formed directive silences its finding
// and produces no diagnostics of its own.
func TestIgnoreSuppressed(t *testing.T) {
	analysistest.Run(t, analysis.All(), "testdata/ignore/suppressed", fixturePath)
}

// TestIgnoreMalformed: a directive missing its reason (or naming an
// unknown analyzer, or naming nothing) is itself a finding AND fails to
// suppress the diagnostic it precedes.
func TestIgnoreMalformed(t *testing.T) {
	pkg := analysistest.Load(t, "testdata/ignore/bad", fixturePath)
	diags, err := analysis.Run(pkg, analysis.All())
	if err != nil {
		t.Fatal(err)
	}
	wantSubstrings := []string{
		"needs a non-empty reason",
		"names unknown analyzer nosuchpass",
		"needs an analyzer name and a reason",
	}
	for _, want := range wantSubstrings {
		found := false
		for _, d := range diags {
			if d.Analyzer == "zkvet" && strings.Contains(d.Message, want) {
				found = true
			}
		}
		if !found {
			t.Errorf("no zkvet directive diagnostic containing %q in %v", want, diags)
		}
	}
	suppressed := 0
	for _, d := range diags {
		if d.Analyzer == "norawgo" {
			suppressed++
		}
	}
	if suppressed != 3 {
		t.Errorf("malformed directives must not suppress: want 3 norawgo findings, got %d in %v", suppressed, diags)
	}
}

// TestLoaderBuildConstraints: a package split into build-constrained file
// pairs (a _GOARCH suffix pair and a //go:build tag pair, each declaring the
// same names) loads clean — the loader keeps the three files `go build`
// would, on any host architecture, instead of all five.
func TestLoaderBuildConstraints(t *testing.T) {
	pkg := analysistest.Load(t, "testdata/buildtags", fixturePath)
	if len(pkg.Files) != 3 {
		t.Errorf("loaded %d files, want 3 (kernel.go, one kernel_* side, tag_off.go)", len(pkg.Files))
	}
	if c, ok := pkg.Types.Scope().Lookup("tagged").(*types.Const); !ok || c.Val().String() != "1" {
		t.Errorf("tagged = %v, want the constant 1 from tag_off.go", pkg.Types.Scope().Lookup("tagged"))
	}
}

// TestModuleClean runs the whole suite over every package of the module,
// as `go run ./cmd/zkvet ./...` does, so an invariant break fails
// `go test ./...` and not only the lint target.
func TestModuleClean(t *testing.T) {
	root, err := analysis.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	l, err := analysis.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := l.ModulePackages()
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		pkg, err := l.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		diags, err := analysis.Run(pkg, analysis.All())
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range diags {
			t.Error(d)
		}
	}
}
