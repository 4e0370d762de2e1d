package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// lockflowAnalyzer checks mutex discipline in the service layer
// (internal/serve), its control plane (internal/serve/control) and the
// streaming risk engine (internal/streamrisk), where a held lock sits on
// the request path of every admission decision:
//
//   - every Lock/RLock in a function body has a matching Unlock/RUnlock in
//     the same body — either deferred or on the straight-line path — so no
//     exit leaks the lock;
//   - no return statement executes between an explicit Lock and its
//     Unlock (use defer for early-return functions);
//   - while a hot mutex is held — the session-shard struct's (`shard`) or
//     the streaming risk engine's (`Engine`) — no journal/network I/O and
//     no channel send may run: both can block for unbounded time and would
//     stall every session behind the mutex.
//
// The analysis is lexical per function body (function literals are
// separate scopes): it pairs each Lock with the next Unlock of the same
// receiver expression and inspects the interval between them. That is
// exactly the discipline the service code is written in — conditional
// lock/unlock across branches would be flagged as a leak, which is the
// point: such shapes don't belong on the request path.
var lockflowAnalyzer = &Analyzer{
	Name:  "lockflow",
	Doc:   "Lock without Unlock on all paths, return while holding, or blocking work under a hot mutex",
	Match: inPackages("internal/serve", "internal/serve/control", "internal/streamrisk"),
	Run: func(pass *Pass) {
		for _, f := range pass.Pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				for _, body := range lockScopes(fd) {
					checkLockScope(pass, body)
				}
			}
		}
	},
}

// lockScopes returns the lexical scopes of a declaration: the declaration
// body plus each nested function literal body (a deferred closure or
// handler is its own control-flow world).
func lockScopes(fd *ast.FuncDecl) []*ast.BlockStmt {
	scopes := []*ast.BlockStmt{fd.Body}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			scopes = append(scopes, fl.Body)
		}
		return true
	})
	return scopes
}

// lockOp is one mutex operation found in a scope.
type lockOp struct {
	pos  token.Pos
	key  string // receiver expression, e.g. "sh.mu"
	name string // Lock, Unlock, RLock, RUnlock
	hot  bool   // receiver is a field of a hot struct (shard, Engine)
}

// checkLockScope runs the lexical pairing over one scope, skipping nested
// function literals (they are separate scopes).
func checkLockScope(pass *Pass, body *ast.BlockStmt) {
	var ops []lockOp
	deferred := map[string]bool{} // key+kind with a deferred unlock
	var returns []token.Pos
	var sends []token.Pos
	type ioCall struct {
		pos  token.Pos
		desc string
	}
	var ios []ioCall

	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			// Nested literals are their own scopes (lockScopes visits them);
			// the walk starts at body itself, so this only skips inner ones.
			return false
		case *ast.DeferStmt:
			// defer mu.Unlock(), or defer func() { ...; mu.Unlock() }().
			if op, ok := mutexOp(pass.Pkg, x.Call); ok && isUnlock(op.name) {
				deferred[op.key+"/"+lockKind(op.name)] = true
				return false
			}
			if fl, ok := x.Call.Fun.(*ast.FuncLit); ok {
				ast.Inspect(fl.Body, func(m ast.Node) bool {
					if call, ok := m.(*ast.CallExpr); ok {
						if op, ok := mutexOp(pass.Pkg, call); ok && isUnlock(op.name) {
							deferred[op.key+"/"+lockKind(op.name)] = true
						}
					}
					return true
				})
			}
			return true
		case *ast.CallExpr:
			if op, ok := mutexOp(pass.Pkg, x); ok {
				ops = append(ops, op)
				return false
			}
			if desc := blockingCall(pass.Pkg, x); desc != "" {
				ios = append(ios, ioCall{x.Pos(), desc})
			}
		case *ast.ReturnStmt:
			returns = append(returns, x.Pos())
		case *ast.SendStmt:
			sends = append(sends, x.Arrow)
		}
		return true
	})

	// Pair each Lock with the next Unlock of the same key and kind; inspect
	// the interval.
	for i, op := range ops {
		if isUnlock(op.name) {
			continue
		}
		kind := lockKind(op.name)
		end := token.Pos(-1)
		for _, u := range ops[i+1:] {
			if isUnlock(u.name) && u.key == op.key && lockKind(u.name) == kind {
				end = u.pos
				break
			}
		}
		if end == token.Pos(-1) {
			if deferred[op.key+"/"+kind] {
				continue // defer discipline: covered on every path
			}
			pass.Reportf(op.pos,
				"%s.%s has no matching %s in this function; a panic or early return leaks the lock — use defer",
				op.key, op.name, unlockName(op.name))
			continue
		}
		for _, r := range returns {
			if op.pos < r && r < end {
				pass.Reportf(r,
					"return while holding %s (locked at line %d); use defer %s.%s so every exit releases it",
					op.key, pass.Pkg.Fset.Position(op.pos).Line, op.key, unlockName(op.name))
			}
		}
		if !op.hot {
			continue
		}
		for _, s := range sends {
			if op.pos < s && s < end {
				pass.Reportf(s,
					"channel send while holding hot mutex %s; a full channel would stall every session behind it — release first",
					op.key)
			}
		}
		for _, io := range ios {
			if op.pos < io.pos && io.pos < end {
				pass.Reportf(io.pos,
					"%s while holding hot mutex %s; journal/network I/O can block for unbounded time — copy under the lock, write outside it",
					io.desc, op.key)
			}
		}
	}
}

// mutexOp recognizes a call of sync.Mutex/RWMutex Lock/Unlock/RLock/RUnlock
// on any receiver expression.
func mutexOp(pkg *Package, call *ast.CallExpr) (lockOp, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return lockOp{}, false
	}
	fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return lockOp{}, false
	}
	switch fn.Name() {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return lockOp{}, false
	}
	return lockOp{
		pos:  call.Pos(),
		key:  types.ExprString(sel.X),
		name: fn.Name(),
		hot:  isHotMutex(pkg, sel.X),
	}, true
}

func isUnlock(name string) bool { return name == "Unlock" || name == "RUnlock" }

// lockKind collapses Lock/Unlock to "w" and RLock/RUnlock to "r" so reader
// and writer pairs don't satisfy each other.
func lockKind(name string) string {
	if name == "RLock" || name == "RUnlock" {
		return "r"
	}
	return "w"
}

func unlockName(lockName string) string {
	if lockName == "RLock" {
		return "RUnlock"
	}
	return "Unlock"
}

// isHotMutex reports whether the mutex expression is a field of a struct
// whose hold time gates every session behind it: the store's session
// shard (`sh.mu` where sh is a *shard) or the streaming risk engine
// (`e.mu` where e is a *Engine) — the engine's fold runs on the serve
// request path under the owning session's mutex, so anything blocking
// under it stalls admission.
func isHotMutex(pkg *Package, e ast.Expr) bool {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	t := pkg.Info.TypeOf(sel.X)
	if t == nil {
		return false
	}
	if pt, ok := t.(*types.Pointer); ok {
		t = pt.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	switch named.Obj().Name() {
	case "shard", "Engine":
		return true
	}
	return false
}

// blockingCall describes a call that performs journal or network I/O (""
// when it is not one): writer-shaped methods (Write, Encode, Flush, ...)
// and any call into the obs journaling package.
func blockingCall(pkg *Package, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return ""
	}
	if fn.Pkg() != nil && inPackages("internal/obs")(fn.Pkg().Path()) {
		return "obs." + fn.Name()
	}
	switch fn.Name() {
	case "Write", "WriteString", "WriteByte", "WriteTo", "Sync", "Flush",
		"Encode", "Fprint", "Fprintf", "Fprintln":
		return fn.Name()
	}
	return ""
}
