package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The golden corpus under testdata/src is a self-contained module: one
// positive and one suppressed fixture per analyzer, with expected findings
// marked in place as
//
//	// want <rule> "<message substring>"
//
// (several markers may share a line). TestGoldenFixtures runs the full
// pipeline — loading, scoping, suppression — over the corpus and requires
// an exact match between markers and findings in both directions.

var wantMarker = regexp.MustCompile(`\bwant ([a-z]+) "([^"]*)"`)

type marker struct {
	file string
	line int
	rule string
	sub  string
	hit  bool
}

func readWantMarkers(t *testing.T, root string) []*marker {
	t.Helper()
	var markers []*marker
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantMarker.FindAllStringSubmatch(line, -1) {
				markers = append(markers, &marker{file: path, line: i + 1, rule: m[1], sub: m[2]})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return markers
}

func TestGoldenFixtures(t *testing.T) {
	root := filepath.Join("testdata", "src")
	findings, err := RunWith(root, []string{"./..."}, All(), Options{Tests: true})
	if err != nil {
		t.Fatal(err)
	}
	markers := readWantMarkers(t, root)

	for _, f := range findings {
		matched := false
		for _, m := range markers {
			if !m.hit && m.file == f.Pos.Filename && m.line == f.Pos.Line &&
				m.rule == f.Rule && strings.Contains(f.Msg, m.sub) {
				m.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for _, m := range markers {
		if !m.hit {
			t.Errorf("expected finding not reported: %s:%d: %s (message containing %q)",
				m.file, m.line, m.rule, m.sub)
		}
	}

	// Every analyzer must have a live positive case in the corpus — this is
	// the golden-file gate behind "repolint exits nonzero on each
	// analyzer's positive case".
	seen := map[string]bool{}
	for _, f := range findings {
		seen[f.Rule] = true
	}
	for _, a := range All() {
		if !seen[a.Name] {
			t.Errorf("analyzer %s has no positive golden case", a.Name)
		}
	}
	if !seen["directive"] {
		t.Error("directive hygiene has no positive golden case")
	}
}

// TestDeadcodeIndependentOfTestsAndPattern pins that deadcode findings
// depend neither on -tests (test files never count as callers) nor on the
// package pattern (the call graph always spans the whole module).
func TestDeadcodeIndependentOfTestsAndPattern(t *testing.T) {
	root := filepath.Join("testdata", "src")
	render := func(pattern string, opts Options) string {
		findings, err := RunWith(root, []string{pattern}, []*Analyzer{deadcodeAnalyzer}, opts)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, f := range findings {
			if f.Rule == "deadcode" {
				fmt.Fprintln(&b, f)
			}
		}
		return b.String()
	}
	whole := render("./...", Options{})
	if whole == "" {
		t.Fatal("no deadcode findings on the corpus")
	}
	if withTests := render("./...", Options{Tests: true}); withTests != whole {
		t.Errorf("-tests changed the findings:\n--- without ---\n%s--- with ---\n%s", whole, withTests)
	}
	if sub := render("./internal/deadcode", Options{Tests: true}); sub != whole {
		t.Errorf("a run on the fixture package differs from the ./... run:\n--- ./... ---\n%s--- ./internal/deadcode ---\n%s", whole, sub)
	}
	if sub := render("./internal/stats", Options{}); sub != "" {
		t.Errorf("a run on a package that main reaches reported:\n%s", sub)
	}
}

// TestRepoIsClean runs the whole suite over the real tree: the repository
// must stay free of findings (legitimate exceptions carry documented
// //lint:allow directives).
func TestRepoIsClean(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	findings, err := RunWith(root, []string{"./..."}, All(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}

// TestRepoIsCleanWithTests is the -tests contract: the real tree stays
// clean when _test.go files are analyzed too (make lint runs this mode).
func TestRepoIsCleanWithTests(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	findings, err := RunWith(root, []string{"./..."}, All(), Options{Tests: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}

// TestDedupeSort pins the output contract the linter's own determinism
// depends on: findings sorted by (file, line, column, rule, message) with
// exact duplicates dropped — the same invariant the -json byte-stability
// gate relies on.
func TestDedupeSort(t *testing.T) {
	mk := func(file string, line, col int, rule, msg string) Finding {
		f := Finding{Rule: rule, Msg: msg}
		f.Pos.Filename = file
		f.Pos.Line = line
		f.Pos.Column = col
		return f
	}
	in := []Finding{
		mk("b.go", 1, 1, "wallclock", "w"),
		mk("a.go", 9, 2, "maporder", "m"),
		mk("a.go", 9, 2, "maporder", "m"), // duplicate (overlapping package views)
		mk("a.go", 9, 2, "floateq", "f"),
		mk("a.go", 9, 1, "wallclock", "w"),
		mk("a.go", 2, 5, "wallclock", "w"),
	}
	got := dedupeSort(in)
	want := []Finding{
		mk("a.go", 2, 5, "wallclock", "w"),
		mk("a.go", 9, 1, "wallclock", "w"),
		mk("a.go", 9, 2, "floateq", "f"),
		mk("a.go", 9, 2, "maporder", "m"),
		mk("b.go", 1, 1, "wallclock", "w"),
	}
	if len(got) != len(want) {
		t.Fatalf("got %d findings, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("finding %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestRunDeterministic runs the golden corpus twice: two full pipeline
// runs (fresh loaders, fresh type-checkers) must agree finding for
// finding.
func TestRunDeterministic(t *testing.T) {
	root := filepath.Join("testdata", "src")
	render := func() string {
		findings, err := RunWith(root, []string{"./..."}, All(), Options{Tests: true})
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, f := range findings {
			fmt.Fprintf(&b, "%s:%d:%d: %s: %s\n", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Rule, f.Msg)
		}
		return b.String()
	}
	if first, second := render(), render(); first != second {
		t.Errorf("two runs disagree:\n--- first ---\n%s--- second ---\n%s", first, second)
	}
}

func TestSplitDirective(t *testing.T) {
	cases := []struct {
		in     string
		rules  []string
		reason string
	}{
		{" wallclock — progress ETA", []string{"wallclock"}, "progress ETA"},
		{" wallclock -- progress ETA", []string{"wallclock"}, "progress ETA"},
		{" floateq,maporder — two rules", []string{"floateq", "maporder"}, "two rules"},
		{" wallclock", []string{"wallclock"}, ""},
		{" — reason only", nil, "reason only"},
	}
	for _, c := range cases {
		rules, reason := splitDirective(c.in)
		if fmt.Sprint(rules) != fmt.Sprint(c.rules) || reason != c.reason {
			t.Errorf("splitDirective(%q) = %v, %q; want %v, %q", c.in, rules, reason, c.rules, c.reason)
		}
	}
}

func TestDirectiveCoversOwnAndNextLine(t *testing.T) {
	var s = allowSet{}
	s.add("f.go", 10, "wallclock")
	for line, want := range map[int]bool{9: false, 10: true, 11: true, 12: false} {
		f := Finding{Rule: "wallclock"}
		f.Pos.Filename = "f.go"
		f.Pos.Line = line
		if got := s.allows(f); got != want {
			t.Errorf("line %d allowed = %v, want %v", line, got, want)
		}
	}
	other := Finding{Rule: "floateq"}
	other.Pos.Filename = "f.go"
	other.Pos.Line = 10
	if s.allows(other) {
		t.Error("directive for wallclock suppressed floateq")
	}
}
