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
// (detflow, hotalloc, deadcode) run over. The graph is deliberately simple
// and over-approximate in the direction that keeps the determinism
// guarantee sound:
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
// graph; the direct-call analyzers already name the standard-library
// functions that matter (time.Now, math/rand), and those are detected as
// taint sites inside module bodies rather than as graph nodes.

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

// taintKind distinguishes the two taint sources detflow tracks.
type taintKind int

const (
	taintWall taintKind = iota
	taintRand
)

func (k taintKind) String() string {
	if k == taintWall {
		return "the wall clock"
	}
	return "the shared global rand source"
}

// taintTrace records, for a tainted function, the next hop toward the
// taint source (nil at a function containing a direct site) and the
// source description ("time.Now") at the end of the chain.
type taintTrace struct {
	via  *types.Func
	site string
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
	// //lint:allow wallclock/globalrand/detflow directive on a direct call
	// site sanitizes it for taint purposes.
	allows allowSet

	taintOnce bool
	taint     [2]map[*types.Func]taintTrace

	hotOnce bool
	// hotReach maps every function reachable from a //lint:hot root to
	// that root (the nearest one in deterministic BFS order).
	hotReach map[*types.Func]*types.Func

	// reached is the set deadcode's forward pass marks from the program
	// roots; nil until the pass has run.
	reached map[*types.Func]bool
}

// buildProgram assembles the call graph over the given packages (the whole
// loaded closure) with the merged allow set acting as taint sanitizers.
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

// directTaintSites scans one body for unsanitized direct reads of a taint
// source, returning the description of the first one in source order ("").
// A //lint:allow wallclock / globalrand / detflow directive covering the
// site's line sanitizes it: the annotation is the documented, reviewed
// escape hatch, so taint must not propagate out of it.
func (p *Program) directTaintSite(n *funcNode, kind taintKind) string {
	site := ""
	sitePos := 0
	ast.Inspect(n.decl.Body, func(node ast.Node) bool {
		sel, ok := node.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		var desc, rule string
		if name := pkgFunc(n.pkg, sel, "time"); kind == taintWall && wallclockFuncs[name] {
			desc, rule = "time."+name, "wallclock"
		}
		if kind == taintRand {
			for _, path := range []string{"math/rand", "math/rand/v2"} {
				if name := pkgFunc(n.pkg, sel, path); name != "" && !randSeeded[name] {
					desc, rule = path+"."+name, "globalrand"
				}
			}
		}
		if desc == "" {
			return true
		}
		pos := n.pkg.Fset.Position(sel.Pos())
		if p.allows.allowsAt(pos.Filename, pos.Line, rule, "detflow") {
			return true
		}
		if site == "" || pos.Offset < sitePos {
			site, sitePos = desc, pos.Offset
		}
		return true
	})
	return site
}

// ensureTaint runs the two reverse-reachability passes (wall clock, global
// rand) once, seeding from functions with unsanitized direct sites and
// propagating caller-ward; an interface method's taint flows from its
// concrete implementations to the interface call sites.
func (p *Program) ensureTaint() {
	if p.taintOnce {
		return
	}
	p.taintOnce = true

	// Reverse adjacency, with interface fan-in: a caller of an interface
	// method is a (reverse-)neighbor of every implementation.
	rev := map[*types.Func][]*types.Func{}
	for _, n := range p.sortedNodes() {
		for _, callee := range n.callees {
			rev[callee] = append(rev[callee], n.obj)
			for _, impl := range p.impls[callee] {
				rev[impl] = append(rev[impl], n.obj)
			}
		}
	}

	for _, kind := range []taintKind{taintWall, taintRand} {
		taint := map[*types.Func]taintTrace{}
		var queue []*types.Func
		for _, n := range p.sortedNodes() {
			if site := p.directTaintSite(n, kind); site != "" {
				taint[n.obj] = taintTrace{site: site}
				queue = append(queue, n.obj)
			}
		}
		for len(queue) > 0 {
			fn := queue[0]
			queue = queue[1:]
			for _, caller := range rev[fn] {
				if _, ok := taint[caller]; ok {
					continue
				}
				taint[caller] = taintTrace{via: fn}
				queue = append(queue, caller)
			}
		}
		p.taint[kind] = taint
	}
}

// taintedBy reports whether fn can reach the given taint source, with the
// call chain rendered for the finding message.
func (p *Program) taintedBy(fn *types.Func, kind taintKind) (string, bool) {
	p.ensureTaint()
	if _, ok := p.taint[kind][fn]; !ok {
		return "", false
	}
	var hops []string
	for cur := fn; ; {
		hops = append(hops, displayName(cur))
		t := p.taint[kind][cur]
		if t.via == nil {
			hops = append(hops, t.site)
			break
		}
		cur = t.via
	}
	return strings.Join(hops, " -> "), true
}

// ensureHot runs the forward reachability pass from the //lint:hot roots
// once; interface calls fan out to every module implementation.
func (p *Program) ensureHot() {
	if p.hotOnce {
		return
	}
	p.hotOnce = true
	p.hotReach = map[*types.Func]*types.Func{}
	var queue []*types.Func
	for _, n := range p.sortedNodes() {
		if n.hot {
			p.hotReach[n.obj] = n.obj
			queue = append(queue, n.obj)
		}
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		root := p.hotReach[fn]
		n, ok := p.funcs[fn]
		if !ok {
			continue
		}
		targets := make([]*types.Func, 0, len(n.callees))
		for _, callee := range n.callees {
			targets = append(targets, callee)
			targets = append(targets, p.impls[callee]...)
		}
		for _, t := range targets {
			if _, ok := p.hotReach[t]; ok {
				continue
			}
			if _, inModule := p.funcs[t]; !inModule {
				continue
			}
			p.hotReach[t] = root
			queue = append(queue, t)
		}
	}
}

// hotRoot returns the //lint:hot root fn is reachable from, if any.
func (p *Program) hotRoot(fn *types.Func) (*types.Func, bool) {
	p.ensureHot()
	root, ok := p.hotReach[fn]
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

// allowsAt reports whether any of the rules is allowed at file:line.
func (s allowSet) allowsAt(file string, line int, rules ...string) bool {
	for _, r := range rules {
		if s[file][line][r] {
			return true
		}
	}
	return false
}
