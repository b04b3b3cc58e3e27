package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LockBalance enforces the registry/store locking discipline: every
// sync.Mutex / sync.RWMutex acquisition must reach its release on all paths
// out of the function, and Close-like teardown (session/pipeline Close,
// closeAll, releasePipeline) must never run while a *container* lock — the
// mutex guarding a map+LRU-list structure like live.Registry or the
// server's result cache — is held. Entry-level locks (a registry entry's
// own mutex) may legitimately be held across Close; container locks may
// not, because Close can block on entry work and would serialize the whole
// registry.
//
// A lock that escapes the function's view — returned with its owner
// (Registry.checkout hands back a locked entry by contract), released
// inside a closure handed elsewhere (runTimed), or otherwise transferred —
// ends tracking silently rather than guessing.
var LockBalance = &Analyzer{
	Name: "lockbalance",
	Doc:  "mutex acquisitions are released on every path; no Close under a container lock",
	Run:  runLockBalance,
}

// mutexPairs maps acquire methods to their releases.
var mutexPairs = map[string]string{
	"Lock":     "Unlock",
	"TryLock":  "Unlock",
	"RLock":    "RUnlock",
	"TryRLock": "RUnlock",
}

var mutexMethodNames = map[string]bool{
	"Lock": true, "TryLock": true, "Unlock": true,
	"RLock": true, "TryRLock": true, "RUnlock": true,
}

func runLockBalance(pass *Pass) error {
	for _, f := range pass.Files {
		forEachFuncBody(f, func(name string, body *ast.BlockStmt) {
			lockBalanceFunc(pass, name, body)
		})
	}
	return nil
}

// forEachFuncBody visits every function body in the file: declarations and
// function literals alike. Literal bodies are analyzed as functions of
// their own; the enclosing function's walk treats them as opaque values.
func forEachFuncBody(f *ast.File, fn func(name string, body *ast.BlockStmt)) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				fn(n.Name.Name, n.Body)
			}
		case *ast.FuncLit:
			fn("func literal", n.Body)
		}
		return true
	})
}

// inspectShallow walks the subtree without descending into function
// literals, so acquire sites are attributed to the body that runs them.
func inspectShallow(n ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(n, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		return fn(n)
	})
}

// mutexAcquire matches <chain>.<Lock|RLock|TryLock|TryRLock>() where the
// receiver is a sync mutex, returning the receiver chain and method name.
func mutexAcquire(info *types.Info, call *ast.CallExpr) (recv ast.Expr, method string, ok bool) {
	recv, name, obj := methodCall(info, call)
	if recv == nil || mutexPairs[name] == "" {
		return nil, "", false
	}
	if !isSyncMutexMethod(obj) {
		return nil, "", false
	}
	return recv, name, true
}

// isSyncMutexMethod reports whether obj is a method of sync.Mutex or
// sync.RWMutex (including promoted embedded forms, which the selection
// machinery resolves to the same objects).
func isSyncMutexMethod(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	n := namedOrPointee(sig.Recv().Type())
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == "sync" &&
		(n.Obj().Name() == "Mutex" || n.Obj().Name() == "RWMutex")
}

func lockBalanceFunc(pass *Pass, fname string, body *ast.BlockStmt) {
	type lockSite struct {
		site    acquireSite
		chain   string
		recv    ast.Expr
		release string
	}
	var sites []lockSite

	inspectShallow(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ExprStmt:
			call, ok := n.X.(*ast.CallExpr)
			if !ok {
				return true
			}
			recv, method, ok := mutexAcquire(pass.TypesInfo, call)
			if !ok {
				return true
			}
			if method == "TryLock" || method == "TryRLock" {
				pass.Reportf(call.Pos(), "result of %s.%s ignored: the lock may not be held", chainString(recv), method)
				return true
			}
			if chainString(recv) == "" {
				return true // lock reached through a call; not trackable
			}
			sites = append(sites, lockSite{
				site:    acquireSite{kind: acqStmt, stmt: n, pos: call.Pos()},
				chain:   chainString(recv),
				recv:    recv,
				release: mutexPairs[method],
			})
		case *ast.IfStmt:
			// if x.TryLock() { held in body }   |   if !x.TryLock() { not held }
			cond := n.Cond
			kind := acqTryThen
			if neg, ok := cond.(*ast.UnaryExpr); ok && neg.Op == token.NOT {
				cond = neg.X
				kind = acqTryElse
			}
			call, ok := cond.(*ast.CallExpr)
			if !ok {
				return true
			}
			recv, method, ok := mutexAcquire(pass.TypesInfo, call)
			if !ok || (method != "TryLock" && method != "TryRLock") || chainString(recv) == "" {
				return true
			}
			sites = append(sites, lockSite{
				site:    acquireSite{kind: kind, stmt: n, pos: call.Pos()},
				chain:   chainString(recv),
				recv:    recv,
				release: mutexPairs[method],
			})
		}
		return true
	})

	for _, ls := range sites {
		ls := ls
		acqPos := pass.Fset.Position(ls.site.pos)
		container := lockGuardsContainer(pass.TypesInfo, ls.recv)
		spec := &flowSpec{
			site: ls.site,
			isRelease: func(call *ast.CallExpr) bool {
				recv, name, obj := methodCall(pass.TypesInfo, call)
				return name == ls.release && isSyncMutexMethod(obj) && chainString(recv) == ls.chain
			},
			isAcquire: func(call *ast.CallExpr) bool {
				recv, _, ok := mutexAcquire(pass.TypesInfo, call)
				return ok && chainString(recv) == ls.chain
			},
			escapes: func(stmt ast.Stmt) bool {
				return lockEscapes(pass.TypesInfo, stmt, ls.chain)
			},
			reportReturn: func(pos token.Pos, partial bool) {
				if partial {
					pass.Reportf(pos, "%s (acquired at %s:%d) is released on some paths to this return but not all", ls.chain, acqPos.Filename, acqPos.Line)
				} else {
					pass.Reportf(pos, "%s (acquired at %s:%d) is still held at this return", ls.chain, acqPos.Filename, acqPos.Line)
				}
			},
			reportEnd: func(pos token.Pos, partial bool) {
				pass.Reportf(pos, "%s (acquired at %s:%d) is still held when %s ends", ls.chain, acqPos.Filename, acqPos.Line, fname)
			},
		}
		if container {
			spec.onHeld = func(stmt ast.Stmt, _ flowState) {
				reportCloseUnderLock(pass, stmt, ls.chain)
			}
		}
		runFlow(spec, body)
	}
}

// lockEscapes reports whether the statement moves the lock (or its release
// duty) out of the walked function: the mutex chain referenced outside a
// mutex method call, the chain's root object returned to the caller
// (locked-owner handoff, e.g. Registry.checkout), or any reference to the
// chain from inside a function literal (unlock-in-closure).
func lockEscapes(info *types.Info, stmt ast.Stmt, chain string) bool {
	parents := parentsOf(stmt)
	if ret, ok := stmt.(*ast.ReturnStmt); ok {
		// Returning the lock's owner itself (`return e, nil` while e.mu is
		// held) is the locked-owner handoff; returning a value merely read
		// from the owner (`return c.n`) is not.
		rootName := chain
		if i := indexByte(chain, '.'); i >= 0 {
			rootName = chain[:i]
		}
		for _, res := range ret.Results {
			for {
				switch r := res.(type) {
				case *ast.ParenExpr:
					res = r.X
					continue
				case *ast.UnaryExpr:
					if r.Op == token.AND {
						res = r.X
						continue
					}
				}
				break
			}
			if id, ok := res.(*ast.Ident); ok && id.Name == rootName && info.Uses[id] != nil {
				return true
			}
		}
	}
	escaped := false
	ast.Inspect(stmt, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || chainString(sel) != chain {
			return !escaped
		}
		if insideFuncLit(parents, sel) {
			escaped = true
			return false
		}
		// The only sanctioned use outside a closure is as the receiver of a
		// mutex method call.
		if psel, ok := parents[sel].(*ast.SelectorExpr); ok && psel.X == sel && mutexMethodNames[psel.Sel.Name] {
			if _, ok := parents[psel].(*ast.CallExpr); ok {
				return true
			}
		}
		escaped = true
		return false
	})
	return escaped
}

func indexByte(s string, b byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == b {
			return i
		}
	}
	return -1
}

// lockGuardsContainer reports whether the mutex belongs to a container
// struct — one that also owns a container/list.List (the LRU registries).
// For a chain like r.mu the parent is r; for an embedded mutex (t.Lock())
// the parent is the receiver itself.
func lockGuardsContainer(info *types.Info, recv ast.Expr) bool {
	parent := recv
	if sel, ok := recv.(*ast.SelectorExpr); ok {
		parent = sel.X
	}
	tv, ok := info.Types[parent]
	if !ok {
		return false
	}
	n := namedOrPointee(tv.Type)
	if n == nil {
		return false
	}
	st, ok := n.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		ft := st.Field(i).Type()
		if p, ok := ft.(*types.Pointer); ok {
			ft = p.Elem()
		}
		if named, ok := ft.(*types.Named); ok {
			if named.Obj().Name() == "List" && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "container/list" {
				return true
			}
		}
	}
	return false
}

// closeLikeNames are the teardown entry points that must not run under a
// container lock: they can block on entry-level work (solver teardown,
// pipeline return) and would serialize every other key behind the registry
// mutex.
var closeLikeNames = map[string]bool{
	"Close":           true,
	"closeAll":        true,
	"releasePipeline": true,
}

func reportCloseUnderLock(pass *Pass, stmt ast.Stmt, chain string) {
	inspectShallow(stmt, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		var name string
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			name = fun.Name
		case *ast.SelectorExpr:
			name = fun.Sel.Name
		}
		if closeLikeNames[name] {
			pass.Reportf(call.Pos(), "%s called while container lock %s is held; release the lock first (close-outside-lock discipline)", name, chain)
		}
		return true
	})
}
