package lint

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// Finding is one rule violation at one position.
type Finding struct {
	Pos  token.Position
	Rule string
	Msg  string
}

// String renders the finding in the canonical "file:line: rule: message"
// form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Rule, f.Msg)
}

// Analyzer is one self-contained pass over a package.
type Analyzer struct {
	// Name is the rule name used in reports and allow directives.
	Name string
	// Doc is a one-line description for the rule catalog.
	Doc string
	// Match restricts the analyzer to packages whose import path it
	// accepts; nil applies the analyzer to every package.
	Match func(pkgPath string) bool
	// Tests marks the analyzer as applying to _test.go files when the run
	// includes them (Options.Tests). Rules that stay off in tests document
	// why: test assertions legitimately compare exact floats, and the
	// call-graph rules (hotalloc, deadcode) bind production code.
	Tests bool
	// Run inspects one package, reporting through the pass.
	Run func(*Pass)
}

// Pass carries one analyzer run over one package.
type Pass struct {
	Pkg *Package
	// Prog is the whole-program view over every package of the module,
	// whatever the requested patterns; the call-graph analyzers resolve
	// reachability through it.
	Prog     *Program
	findings []Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.findings = append(p.findings, Finding{
		Pos: p.Pkg.Fset.Position(pos),
		Msg: fmt.Sprintf(format, args...),
	})
}

// All returns the full rule catalog in report order.
func All() []*Analyzer {
	return []*Analyzer{
		deadcodeAnalyzer,
		errignoreAnalyzer,
		floateqAnalyzer,
		globalrandAnalyzer,
		hotallocAnalyzer,
		lockflowAnalyzer,
		maporderAnalyzer,
		wallclockAnalyzer,
	}
}

// inPackages builds a Match function accepting packages whose import path
// equals or ends with one of the given module-relative suffixes.
func inPackages(suffixes ...string) func(string) bool {
	return func(path string) bool {
		for _, s := range suffixes {
			if path == s || strings.HasSuffix(path, "/"+s) {
				return true
			}
		}
		return false
	}
}

// Options tunes one linter run.
type Options struct {
	// Tests includes _test.go files: every requested package is
	// re-type-checked with its in-package test files merged in, and
	// external foo_test packages are analyzed as packages of their own.
	// Only analyzers that opt in (Analyzer.Tests) see the test files.
	Tests bool
}

// pkgView is one analyzed compilation of a package: its files, the
// suppression set scanned from them, and the directive-hygiene findings.
type pkgView struct {
	pkg    *Package
	allows allowSet
	bad    []Finding
}

func newView(pkg *Package) *pkgView {
	v := &pkgView{pkg: pkg}
	v.allows, v.bad = directives(pkg)
	return v
}

// RunWith loads the patterns from the module rooted at root and applies
// the analyzers, returning suppression-filtered findings deduplicated and
// sorted by position. Malformed //lint:allow directives are themselves
// reported under the "directive" rule, so a typo cannot silently disable a
// suppression.
func RunWith(root string, patterns []string, analyzers []*Analyzer, opts Options) ([]Finding, error) {
	l, err := NewLoader(root)
	if err != nil {
		return nil, err
	}
	pkgs, err := l.Load(patterns)
	if err != nil {
		return nil, err
	}
	// The call graph spans the whole module whatever the patterns: the
	// programs deadcode walks from live in cmd/ and examples/, and a run on
	// a sub-pattern must report what the ./... run reports.
	if _, err := l.Load([]string{"./..."}); err != nil {
		return nil, err
	}

	// Scan directives across the whole loaded closure first: a
	// //lint:allow deadcode directive anywhere in the tree makes its
	// declaration a root of the Program, not just in the packages being
	// reported on.
	views := map[*Package]*pkgView{}
	merged := allowSet{}
	for _, pkg := range l.Packages() {
		v := newView(pkg)
		views[pkg] = v
		merged.merge(v.allows)
	}
	prog := buildProgram(l.Packages(), merged)

	var findings []Finding
	for _, pkg := range pkgs {
		base := views[pkg]
		// Test views are built lazily: only when the run includes tests and
		// the package has test files.
		var aug, ext *pkgView
		if opts.Tests {
			in, out, err := l.LoadTests(pkg)
			if err != nil {
				return nil, err
			}
			if in != nil {
				aug = newView(in)
			}
			if out != nil {
				ext = newView(out)
			}
		}
		// Directive hygiene: the augmented view's files are a superset of the
		// base view's, so report its findings instead of the base's when it
		// exists (final dedup removes any overlap regardless).
		if aug != nil {
			findings = append(findings, aug.bad...)
		} else {
			findings = append(findings, base.bad...)
		}
		if ext != nil {
			findings = append(findings, ext.bad...)
		}
		for _, a := range analyzers {
			if a.Match != nil && !a.Match(pkg.Path) {
				continue
			}
			targets := []*pkgView{base}
			if opts.Tests && a.Tests {
				if aug != nil {
					targets = []*pkgView{aug}
				}
				if ext != nil {
					targets = append(targets, ext)
				}
			}
			for _, t := range targets {
				pass := &Pass{Pkg: t.pkg, Prog: prog}
				a.Run(pass)
				for _, f := range pass.findings {
					f.Rule = a.Name
					if !t.allows.allows(f) {
						findings = append(findings, f)
					}
				}
			}
		}
	}
	return dedupeSort(findings), nil
}

// dedupeSort orders findings by (file, line, column, rule, message) and
// drops exact duplicates, so repolint output is byte-stable across runs
// and across overlapping package views (a base package and its
// test-augmented recompilation report each shared finding once).
func dedupeSort(findings []Finding) []Finding {
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Msg < b.Msg
	})
	out := findings[:0]
	for i, f := range findings {
		if i > 0 {
			p := out[len(out)-1]
			if p.Pos.Filename == f.Pos.Filename && p.Pos.Line == f.Pos.Line &&
				p.Pos.Column == f.Pos.Column && p.Rule == f.Rule && p.Msg == f.Msg {
				continue
			}
		}
		out = append(out, f)
	}
	return out
}
