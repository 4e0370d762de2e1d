package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file builds the whole-program view the call-graph analyzers
// (hotalloc, deadcode) run over. The graph is deliberately simple and
// over-approximate, so that no code a root can run escapes its analyzer:
//
//   - A static call edge is added for every function or method a body
//     calls.
//   - A *reference* to a function or method as a value (a sim.Handler
//     passed to Engine.MustSchedule, a scheduler.Factory, a method value)
//     also adds an edge: the referenced code can run on behalf of the
//     referencing function even though the call site is a plain h().
//   - A call through a module-defined interface (scheduler.Policy,
//     obs.Reporter, ...) fans out to every concrete method in the module
//     that implements it.
//
// Bodies outside the module (the standard library) are not part of the
// graph.

// funcNode is one module function or method in the call graph.
type funcNode struct {
	obj  *types.Func
	pkg  *Package
	decl *ast.FuncDecl
	// callees are the functions this body calls or references, sorted by
	// full name for deterministic traversal.
	callees []*types.Func
	// hot marks a //lint:hot annotation on the declaration.
	hot bool
}

// Program is the module-wide call graph plus the reachability results the
// analyzers query. It is built once per linter run and shared by every
// pass.
type Program struct {
	pkgs  []*Package
	funcs map[*types.Func]*funcNode
	// impls maps a module-defined interface method to the concrete module
	// methods implementing it, sorted by full name.
	impls map[*types.Func][]*types.Func
	// concrete lists every named non-interface module type and its pointer,
	// the candidates an interface is matched against.
	concrete []types.Type
	// initRefs are the functions package-level variable initializers call
	// or reference, in package and source order.
	initRefs []*types.Func
	// allows is the merged suppression set of every loaded package; a
	// //lint:allow deadcode directive on a declaration makes it a root.
	allows allowSet

	// hot maps every function reachable from a //lint:hot root to that
	// root; nil until hotalloc first asks.
	hot map[*types.Func]*types.Func
	// live is what the forward pass reaches from the program roots; nil
	// until deadcode first asks.
	live map[*types.Func]*types.Func
}

// buildProgram assembles the call graph over the given packages (the whole
// loaded closure) with their merged allow set.
func buildProgram(pkgs []*Package, allows allowSet) *Program {
	p := &Program{
		pkgs:   pkgs,
		funcs:  map[*types.Func]*funcNode{},
		impls:  map[*types.Func][]*types.Func{},
		allows: allows,
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.VAR {
					p.initRefs = append(p.initRefs, referencedFuncs(pkg, gd)...)
				}
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				p.funcs[obj] = &funcNode{
					obj:  obj,
					pkg:  pkg,
					decl: fd,
					hot:  hasHotDirective(fd),
				}
			}
		}
	}
	p.buildImpls(pkgs)
	for _, n := range p.funcs {
		n.callees = referencedFuncs(n.pkg, n.decl.Body)
	}
	return p
}

// hasHotDirective reports whether the declaration's doc comment carries a
// //lint:hot line, marking the function as a hot-path root for hotalloc.
func hasHotDirective(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if c.Text == "//lint:hot" || strings.HasPrefix(c.Text, "//lint:hot ") {
			return true
		}
	}
	return false
}

// buildImpls computes, for every method of every interface defined in the
// module, the concrete module methods that implement it. Only module
// interfaces matter: those are the dispatch points (scheduler.Policy, the
// obs.Reporter fan-out) whose dynamic targets must stay visible to the
// reachability analyses.
func (p *Program) buildImpls(pkgs []*Package) {
	var ifaces []*types.Interface
	for _, pkg := range pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if iface, ok := named.Underlying().(*types.Interface); ok {
				if iface.NumMethods() > 0 {
					ifaces = append(ifaces, iface)
				}
				continue
			}
			p.concrete = append(p.concrete, named, types.NewPointer(named))
		}
	}
	for _, iface := range ifaces {
		p.eachImpl(iface, func(im, cm *types.Func) {
			p.impls[im] = append(p.impls[im], cm)
		})
	}
	for im, cms := range p.impls {
		sort.Slice(cms, func(i, j int) bool { return cms[i].FullName() < cms[j].FullName() })
		p.impls[im] = dedupFuncs(cms)
	}
}

// eachImpl calls visit with every method of iface and each concrete module
// method implementing it, in p.concrete order.
func (p *Program) eachImpl(iface *types.Interface, visit func(im, cm *types.Func)) {
	for _, t := range p.concrete {
		if !types.Implements(t, iface) {
			continue
		}
		for i := 0; i < iface.NumMethods(); i++ {
			im := iface.Method(i)
			obj, _, _ := types.LookupFieldOrMethod(t, true, im.Pkg(), im.Name())
			if cm, ok := obj.(*types.Func); ok && cm != im {
				visit(im, cm)
			}
		}
	}
}

func dedupFuncs(fns []*types.Func) []*types.Func {
	out := fns[:0]
	for i, fn := range fns {
		if i > 0 && fns[i-1] == fn {
			continue
		}
		out = append(out, fn)
	}
	return out
}

// referencedFuncs walks one syntax tree (a declaration body, including
// nested function literals, whose work is attributed to the enclosing
// declaration, or a package-level var declaration) and returns every
// function or method it calls or references as a value, sorted by full
// name.
func referencedFuncs(pkg *Package, root ast.Node) []*types.Func {
	seen := map[*types.Func]bool{}
	ast.Inspect(root, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				id = sel.Sel
			} else {
				return true
			}
		}
		if fn, ok := pkg.Info.Uses[id].(*types.Func); ok {
			seen[fn] = true
		}
		return true
	})
	out := make([]*types.Func, 0, len(seen))
	for fn := range seen {
		out = append(out, fn)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].FullName() < out[j].FullName() })
	return out
}

// sortedNodes returns the graph's functions sorted by full name, the
// deterministic iteration order every traversal starts from.
func (p *Program) sortedNodes() []*funcNode {
	nodes := make([]*funcNode, 0, len(p.funcs))
	//lint:allow maporder — the slice is fully sorted by FullName below, so iteration order cannot leak
	for _, n := range p.funcs {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool {
		return nodes[i].obj.FullName() < nodes[j].obj.FullName()
	})
	return nodes
}

// forward runs one breadth-first pass over the call graph from roots, in
// order, and maps every module function it reaches to the root it was
// first reached from. Interface calls fan out to every module
// implementation.
func (p *Program) forward(roots []*types.Func) map[*types.Func]*types.Func {
	reach := map[*types.Func]*types.Func{}
	var queue []*types.Func
	mark := func(fn, root *types.Func) {
		if _, inModule := p.funcs[fn]; inModule && reach[fn] == nil {
			reach[fn] = root
			queue = append(queue, fn)
		}
	}
	for _, r := range roots {
		mark(r, r)
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		for _, callee := range p.funcs[fn].callees {
			mark(callee, reach[fn])
			for _, impl := range p.impls[callee] {
				mark(impl, reach[fn])
			}
		}
	}
	return reach
}

// hotRoot returns the //lint:hot root fn is reachable from, if any.
func (p *Program) hotRoot(fn *types.Func) (*types.Func, bool) {
	if p.hot == nil {
		var roots []*types.Func
		for _, n := range p.sortedNodes() {
			if n.hot {
				roots = append(roots, n.obj)
			}
		}
		p.hot = p.forward(roots)
	}
	root, ok := p.hot[fn]
	return root, ok
}

// displayName renders a function for finding messages: pkg.Func or
// (*pkg.Type).Method, without module-path noise.
func displayName(fn *types.Func) string {
	pkgName := ""
	if fn.Pkg() != nil {
		pkgName = fn.Pkg().Name() + "."
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return pkgName + fn.Name()
	}
	t := sig.Recv().Type()
	ptr := ""
	if pt, isPtr := t.(*types.Pointer); isPtr {
		t = pt.Elem()
		ptr = "*"
	}
	if named, isNamed := t.(*types.Named); isNamed {
		return fmt.Sprintf("(%s%s%s).%s", ptr, pkgName, named.Obj().Name(), fn.Name())
	}
	return pkgName + fn.Name()
}
