package main

import (
	"os"
	"path/filepath"
	"testing"
)

// sample is a condensed -m=2 transcript: for each escaping value the
// compiler prints an explanation header (trailing colon), indented flow
// lines sharing the same position, and then the decision itself. Only
// the two decision lines for partitioned.go and one for plan.go count.
const sample = `# github.com/graphbig/graphbig-go/internal/engine
internal/engine/partitioned.go:64:10: can inline nextStamp with cost 12
internal/engine/partitioned.go:66:14: make([]int64, k) escapes to heap:
internal/engine/partitioned.go:66:14:   flow: {heap} = &{storage for make([]int64, k)}:
internal/engine/partitioned.go:66:14:     from make([]int64, k) (non-constant size) at internal/engine/partitioned.go:66:14
internal/engine/partitioned.go:66:14: make([]int64, k) escapes to heap
internal/engine/partitioned.go:80:2: st escapes to heap:
internal/engine/partitioned.go:80:2:   flow: ~r0 = &st:
internal/engine/partitioned.go:80:2:     from return &st (return) at internal/engine/partitioned.go:82:2
internal/engine/partitioned.go:80:2: moved to heap: st
internal/partition/plan.go:31:12: new(Plan) escapes to heap
internal/engine/traverse.go:40:9: leaking param: spec
`

func TestParseEscapesCountsOnlyDecisions(t *testing.T) {
	files := parseEscapes(sample)
	want := map[string]int{
		"internal/engine/partitioned.go": 2,
		"internal/partition/plan.go":     1,
	}
	if len(files) != len(want) {
		t.Fatalf("parseEscapes = %v, want %v", files, want)
	}
	for f, n := range want {
		if files[f] != n {
			t.Errorf("parseEscapes[%s] = %d, want %d (headers or flow lines double-counted?)", f, files[f], n)
		}
	}
}

func TestParseEscapesDedupsRepeatedDecisions(t *testing.T) {
	dup := sample + "internal/partition/plan.go:31:12: new(Plan) escapes to heap\n"
	if n := parseEscapes(dup)["internal/partition/plan.go"]; n != 1 {
		t.Errorf("repeated decision line counted %d times, want 1", n)
	}
}

// TestDiffFlagsSyntheticNewEscape is the ratchet probe: a file whose
// count grows past the baseline must be reported as a regression, a
// shrinking one as an improvement, and untouched files as neither.
func TestDiffFlagsSyntheticNewEscape(t *testing.T) {
	base := map[string]int{
		"internal/engine/partitioned.go": 2,
		"internal/engine/sssp.go":        3,
		"internal/order/bfsorder.go":     1,
	}
	got := map[string]int{
		"internal/engine/partitioned.go":  3, // synthetic new escape
		"internal/engine/sssp.go":         3,
		"internal/order/bfsorder.go":      0,
		"internal/concurrent/frontier.go": 1, // new file: also growth
	}
	regressed, improved := diff(base, got)
	if len(regressed) != 2 {
		t.Fatalf("diff reported %d regressions, want 2: %v", len(regressed), regressed)
	}
	if want := "REGRESSED internal/concurrent/frontier.go: 0 -> 1 heap escapes"; regressed[0] != want {
		t.Errorf("regressed[0] = %q, want %q", regressed[0], want)
	}
	if want := "REGRESSED internal/engine/partitioned.go: 2 -> 3 heap escapes"; regressed[1] != want {
		t.Errorf("regressed[1] = %q, want %q", regressed[1], want)
	}
	if len(improved) != 1 || improved[0] != "improved  internal/order/bfsorder.go: 1 -> 0 heap escapes" {
		t.Errorf("improved = %v, want the bfsorder.go 1 -> 0 line", improved)
	}
}

// TestBaselineRoundTrip writes a baseline, reads it back, and checks
// History survives a rewrite — the ratchet's audit trail must not be
// lost when -write accepts a new count.
func TestBaselineRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "alloc_baseline.json")
	if err := writeBaseline(path, map[string]int{"internal/engine/traverse.go": 4}); err != nil {
		t.Fatal(err)
	}
	b, err := readBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.Files["internal/engine/traverse.go"] != 4 {
		t.Fatalf("round-trip lost counts: %v", b.Files)
	}
	// Inject a history entry the way a maintainer would, then rewrite.
	if err := os.WriteFile(path, []byte(
		`{"history":["seed"],"files":{"internal/engine/traverse.go":4}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := writeBaseline(path, map[string]int{"internal/engine/traverse.go": 3}); err != nil {
		t.Fatal(err)
	}
	b2, err := readBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(b2.History) != 1 || b2.History[0] != "seed" {
		t.Errorf("rewrite dropped History: %v", b2.History)
	}
	if b2.Files["internal/engine/traverse.go"] != 3 {
		t.Errorf("rewrite kept stale count: %v", b2.Files)
	}
}

// TestMeasureBaselineCurrent compiles the real hot packages and compares
// against the committed baseline — the same gate CI runs, so a PR that
// adds a heap escape fails here first.
func TestMeasureBaselineCurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping compiler run in -short mode")
	}
	if err := os.Chdir(findModuleRoot(t)); err != nil {
		t.Fatal(err)
	}
	files, err := measure()
	if err != nil {
		t.Fatal(err)
	}
	base, err := readBaseline("results/alloc_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	regressed, _ := diff(base.Files, files)
	if len(regressed) > 0 {
		t.Errorf("heap escapes regressed vs results/alloc_baseline.json:\n%s",
			regressed)
	}
}

func findModuleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above test directory")
		}
		dir = parent
	}
}
