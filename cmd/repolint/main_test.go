package main

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestRunCleanTree is the CI contract: the repository itself must produce
// zero findings — test files included, since make lint runs -tests — so
// `go run ./cmd/repolint -tests ./...` can gate make verify.
func TestRunCleanTree(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run("../..", []string{"-tests"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d on the real tree\nstdout:\n%s\nstderr:\n%s",
			code, stdout.String(), stderr.String())
	}
}

// TestRunFlagsGoldenFixtures drives the binary entry point at the golden
// corpus: every analyzer's positive case must surface in the output and the
// process must exit 1.
func TestRunFlagsGoldenFixtures(t *testing.T) {
	var stdout, stderr strings.Builder
	code := run("../../internal/lint/testdata/src", nil, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit %d, want 1\nstdout:\n%s\nstderr:\n%s",
			code, stdout.String(), stderr.String())
	}
	for _, rule := range []string{"wallclock", "globalrand", "maporder", "floateq", "errignore",
		"hotalloc", "lockflow", "deadcode", "directive"} {
		if !strings.Contains(stdout.String(), ": "+rule+": ") {
			t.Errorf("no %s finding in driver output", rule)
		}
	}
	if !strings.Contains(stderr.String(), "finding(s)") {
		t.Errorf("stderr missing finding count: %q", stderr.String())
	}
}

// TestRunPerAnalyzerExitCode narrows the run to one positive fixture per
// analyzer and checks the nonzero exit individually.
func TestRunPerAnalyzerExitCode(t *testing.T) {
	cases := map[string]string{
		"wallclock":  "./wallclock",
		"globalrand": "./globalrand",
		"maporder":   "./maporder",
		"floateq":    "./internal/stats",
		"errignore":  "./internal/obs",
		"directive":  "./directive",
		"hotalloc":   "./hotalloc",
		"lockflow":   "./internal/serve",
		"deadcode":   "./internal/deadcode",
	}
	for rule, pattern := range cases {
		var stdout, stderr strings.Builder
		code := run("../../internal/lint/testdata/src", []string{pattern}, &stdout, &stderr)
		if code != 1 {
			t.Errorf("%s: exit %d, want 1\nstdout:\n%s\nstderr:\n%s",
				rule, code, stdout.String(), stderr.String())
			continue
		}
		if !strings.Contains(stdout.String(), ": "+rule+": ") {
			t.Errorf("%s: no finding for the rule in %s\nstdout:\n%s", rule, pattern, stdout.String())
		}
	}
}

// TestRulesFlag prints the catalog and exits clean.
func TestRulesFlag(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run(".", []string{"-rules"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\nstderr: %s", code, stderr.String())
	}
	for _, rule := range []string{"wallclock", "globalrand", "maporder", "floateq", "errignore",
		"hotalloc", "lockflow", "deadcode"} {
		if !strings.Contains(stdout.String(), rule) {
			t.Errorf("catalog missing %s:\n%s", rule, stdout.String())
		}
	}
}

// TestJSONOutputByteStable runs the golden corpus twice in -json mode: the
// NDJSON findings must be valid objects with the fixed field set, and the
// two runs must produce byte-identical output — the machine-readable mode
// is a diffable artifact.
func TestJSONOutputByteStable(t *testing.T) {
	runJSON := func() string {
		var stdout, stderr strings.Builder
		code := run("../../internal/lint/testdata/src", []string{"-json", "-tests"}, &stdout, &stderr)
		if code != 1 {
			t.Fatalf("exit %d, want 1\nstderr:\n%s", code, stderr.String())
		}
		return stdout.String()
	}
	first, second := runJSON(), runJSON()
	if first != second {
		t.Fatalf("-json output differs between runs:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
	lines := strings.Split(strings.TrimRight(first, "\n"), "\n")
	if len(lines) == 0 {
		t.Fatal("no JSON findings emitted")
	}
	for _, line := range lines {
		var f jsonFinding
		if err := json.Unmarshal([]byte(line), &f); err != nil {
			t.Fatalf("invalid NDJSON line %q: %v", line, err)
		}
		if f.File == "" || f.Line <= 0 || f.Col <= 0 || f.Rule == "" || f.Msg == "" {
			t.Errorf("incomplete finding object: %q", line)
		}
	}
}
