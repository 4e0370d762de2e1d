package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// deadcodeAnalyzer reports production code that no program runs. Every
// output of the repository comes from a program, so a function that no
// program reaches is kept alive only by its tests — if at all — and is
// either deleted or moved into a _test.go file.
//
// Reachability runs forward over the whole-module call graph from its
// roots:
//
//   - every main and every init;
//   - every function a package-level variable initializer calls or
//     references;
//   - every method that satisfies a module interface, or an interface of
//     a standard-library package the module imports (a String method
//     reached through fmt, a ResponseWriter stub, a types.Importer);
//   - every declaration carrying //lint:allow deadcode — <reason>, so a
//     documented exception also keeps alive whatever it calls.
//
// Test files are never part of the graph, so a function that only tests
// call is reported. The graph always spans the whole module, so findings
// depend neither on -tests nor on the package pattern.
var deadcodeAnalyzer = &Analyzer{
	Name: "deadcode",
	Doc:  "function or method under internal/ or cmd/ that no main, init, package-level initializer or interface method reaches",
	Match: func(path string) bool {
		return strings.Contains("/"+path+"/", "/internal/") || strings.Contains("/"+path+"/", "/cmd/")
	},
	Run: func(pass *Pass) {
		prog := pass.Prog
		if prog == nil {
			return
		}
		for _, f := range pass.Pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pass.Pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok || prog.reaches(obj) {
					continue
				}
				pass.Reportf(fd.Name.Pos(),
					"%s is reached by no program; delete it, move it into a _test.go file, or annotate it //lint:allow deadcode naming the caller that needs it",
					displayName(obj))
			}
		}
	},
}

// reaches reports whether fn is reachable from a program root. Every
// module interface implementation is a root already, so the forward pass's
// interface fan-out adds nothing here.
func (p *Program) reaches(fn *types.Func) bool {
	if p.live == nil {
		ifaceRoots := p.ifaceMethods()
		var roots []*types.Func
		for _, n := range p.sortedNodes() {
			if ifaceRoots[n.obj] || p.isRoot(n) {
				roots = append(roots, n.obj)
			}
		}
		p.live = p.forward(append(roots, p.initRefs...))
	}
	_, ok := p.live[fn]
	return ok
}

// isRoot reports whether a declaration runs without any module caller: a
// main, an init, or a declaration whose line an allow directive covers.
func (p *Program) isRoot(n *funcNode) bool {
	if n.decl.Recv == nil {
		switch n.obj.Name() {
		case "init":
			return true
		case "main":
			if n.pkg.Types.Name() == "main" {
				return true
			}
		}
	}
	pos := n.pkg.Fset.Position(n.decl.Name.Pos())
	return p.allows[pos.Filename][pos.Line]["deadcode"]
}

// ifaceMethods returns the concrete module methods that satisfy a method
// of a module interface, of the built-in error, or of a named interface
// in a standard-library package the module imports, directly or through
// another standard-library package.
func (p *Program) ifaceMethods() map[*types.Func]bool {
	out := map[*types.Func]bool{}
	for _, impls := range p.impls {
		for _, fn := range impls {
			out[fn] = true
		}
	}
	// Method names declared in the module: an interface asking for any
	// other name cannot be satisfied, which prunes most of the standard
	// library before the costlier Implements check.
	declared := map[string]bool{}
	for fn := range p.funcs {
		if fn.Type().(*types.Signature).Recv() != nil {
			declared[fn.Name()] = true
		}
	}
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	module := map[*types.Package]bool{}
	for _, pkg := range p.pkgs {
		module[pkg.Types] = true
	}
	seen := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		for _, imp := range pkg.Imports() {
			visit(imp)
		}
		if module[pkg] {
			return
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() {
				continue
			}
			iface, ok := tn.Type().Underlying().(*types.Interface)
			if !ok || iface.NumMethods() == 0 || !iface.IsMethodSet() {
				continue
			}
			satisfiable := true
			for i := 0; i < iface.NumMethods(); i++ {
				satisfiable = satisfiable && declared[iface.Method(i).Name()]
			}
			if satisfiable {
				ifaces = append(ifaces, iface)
			}
		}
	}
	for _, pkg := range p.pkgs {
		visit(pkg.Types)
	}
	for _, iface := range ifaces {
		p.eachImpl(iface, func(_, cm *types.Func) { out[cm] = true })
	}
	return out
}
