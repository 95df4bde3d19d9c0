package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Locksafe enforces two lock-discipline rules in the campaign and
// runner packages, where a stalled critical section stalls the whole
// campaign:
//
//  1. No blocking while held: between a sync.Mutex/RWMutex Lock (or
//     RLock) and the matching Unlock, the function must not perform a
//     channel send/receive, a select without a default, a range over a
//     channel, or a call whose fact-engine summary says it may block
//     on channels or I/O. sync.Cond.Wait is explicitly allowed — it
//     requires the held lock and releases it while waiting. A deferred
//     unlock keeps the lock held to the end of the function, so the
//     rule covers everything after the Lock.
//  2. Unlock must cover every return: a return reached while a lock is
//     held — no explicit unlock on the path, no deferred unlock
//     registered — is a finding; `defer mu.Unlock()` is the sanctioned
//     shape because it dominates every return by construction.
//
// The tracking is statement-ordered and per-function, with branch
// bodies analyzed under a cloned lock set and rejoined by
// intersection: a lock released on every branch (the singleflight
// early-unlock idiom) is released afterward, a lock only conditionally
// released stays held for rule 2's purposes on the fall-through path.
// Calls through function values are invisible to the fact engine and
// not checked. Locks are identified by their receiver expression text
// ("c.mu"), so aliasing a mutex through a pointer copy evades the
// analysis — don't. Escape: //simlint:locksafe "why" — for locks whose
// job is to serialize the blocking operation itself (the campaign
// frame-write mutex).
var Locksafe = &Analyzer{
	Name:     "locksafe",
	Doc:      "flags channel operations, blocking calls, and uncovered returns while a sync.Mutex/RWMutex is held in internal/campaign and internal/runner (escape: //simlint:locksafe)",
	Suppress: "locksafe",
	Run:      runLocksafe,
}

// locksafeBlockMask is the blocking classes forbidden while holding a
// lock. BlockLock is excluded (nested ordered locking is a deadlock
// question this lint does not decide) and BlockCond is excluded
// (Cond.Wait requires the held lock).
const locksafeBlockMask = BlockChan | BlockIO

func runLocksafe(pass *Pass) {
	if !concurrencyPackages[pass.Path()] {
		return
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			lt := &lockTracker{pass: pass, held: map[string]bool{}, deferred: map[string]bool{}}
			lt.walkStmts(fd.Body.List)
		}
	}
}

// lockTracker walks one function in statement order, maintaining the
// set of held lock keys (receiver expression text) and the set with a
// deferred unlock registered.
type lockTracker struct {
	pass     *Pass
	held     map[string]bool
	deferred map[string]bool
	// terminated marks a state that ended in a return: it never reaches
	// the statement after its branch, so join skips it.
	terminated bool
}

// lockMethod classifies a call as a lock acquisition or release on a
// sync.Mutex/RWMutex receiver, returning the lock key and which.
func (lt *lockTracker) lockMethod(call *ast.CallExpr) (key string, acquire, release bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false, false
	}
	fn := calleeFunc(lt.pass.Info(), call)
	if fn == nil {
		return "", false, false
	}
	switch fn.FullName() {
	case "(*sync.Mutex).Lock", "(*sync.RWMutex).Lock", "(*sync.RWMutex).RLock":
		return exprString(sel.X), true, false
	case "(*sync.Mutex).Unlock", "(*sync.RWMutex).Unlock", "(*sync.RWMutex).RUnlock":
		return exprString(sel.X), false, true
	}
	return "", false, false
}

// clone copies the tracker state for a branch body.
func (lt *lockTracker) clone() *lockTracker {
	c := &lockTracker{pass: lt.pass, held: map[string]bool{}, deferred: map[string]bool{}}
	for k := range lt.held {
		c.held[k] = true
	}
	for k := range lt.deferred {
		c.deferred[k] = true
	}
	return c
}

// join rejoins branch states: a lock is held afterward only if every
// falling-through branch leaves it held (intersection); deferred
// unlocks accumulate (union — a defer registered on any path is
// registered for the rest of the function at runtime only on that
// path, but treating it as registered is the quiet direction for
// rule 2 and does not weaken rule 1, which keys on held alone).
// Branches that ended in a return never reach the statement after the
// construct and are excluded; if every branch returned, the current
// state stands (the fall-through is unreachable anyway).
func (lt *lockTracker) join(branches ...*lockTracker) {
	live := branches[:0:0]
	for _, b := range branches {
		if !b.terminated {
			live = append(live, b)
		}
	}
	if len(live) == 0 {
		return
	}
	for k := range lt.held {
		for _, b := range live {
			if !b.held[k] {
				delete(lt.held, k)
				break
			}
		}
	}
	for _, b := range live {
		for k := range b.deferred {
			lt.deferred[k] = true
		}
	}
}

// anyHeld reports whether any lock is currently held, returning one
// key for the message.
func (lt *lockTracker) anyHeld() (string, bool) {
	for k := range lt.held {
		return k, true
	}
	return "", false
}

// heldWithoutDefer returns a held lock with no deferred unlock
// registered, if any.
func (lt *lockTracker) heldWithoutDefer() (string, bool) {
	for k := range lt.held {
		if !lt.deferred[k] {
			return k, true
		}
	}
	return "", false
}

// checkBlocking flags blocking operations in the expression while a
// lock is held. FuncLit subtrees are skipped (they run later, not in
// the critical section); lock/unlock calls themselves are handled by
// the caller.
func (lt *lockTracker) checkBlocking(n ast.Node) {
	key, held := lt.anyHeld()
	if !held || n == nil {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false
		case *ast.SendStmt:
			lt.pass.Reportf(n.Pos(), "channel send while %s is held; move it after the unlock (escape: //simlint:locksafe)", key)
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				lt.pass.Reportf(n.Pos(), "channel receive while %s is held; move it after the unlock (escape: //simlint:locksafe)", key)
			}
		case *ast.CallExpr:
			if k, acq, rel := lt.lockMethod(n); k != "" && (acq || rel) {
				return true
			}
			if fn := calleeFunc(lt.pass.Info(), n); fn != nil {
				if blocks := lt.pass.Facts().FuncFact(fn).Blocks & locksafeBlockMask; blocks != 0 {
					lt.pass.Reportf(n.Pos(), "call to %s may block (%s) while %s is held (escape: //simlint:locksafe)",
						fn.Name(), blocks, key)
				}
			}
		}
		return true
	})
}

// walkStmts processes a statement list in order.
func (lt *lockTracker) walkStmts(stmts []ast.Stmt) {
	for _, st := range stmts {
		lt.walkStmt(st)
	}
}

// applyCalls updates held/deferred for lock method calls in the
// expression (in source order, which Inspect provides).
func (lt *lockTracker) applyCalls(n ast.Node) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if key, acq, rel := lt.lockMethod(call); key != "" {
			if acq {
				lt.held[key] = true
			} else if rel {
				delete(lt.held, key)
				delete(lt.deferred, key)
			}
		}
		return true
	})
}

// walkStmt processes one statement: first rule-1 blocking checks under
// the pre-state, then lock-state updates, descending into compound
// statements with clone/join.
func (lt *lockTracker) walkStmt(st ast.Stmt) {
	switch st := st.(type) {
	case *ast.ExprStmt:
		lt.checkBlocking(st)
		lt.applyCalls(st)
	case *ast.AssignStmt, *ast.DeclStmt, *ast.IncDecStmt:
		lt.checkBlocking(st)
		lt.applyCalls(st)
	case *ast.SendStmt:
		lt.checkBlocking(st)
	case *ast.DeferStmt:
		if key, _, rel := lt.lockMethod(st.Call); rel {
			lt.deferred[key] = true
		}
		// A deferred call's body runs at return; its argument
		// expressions evaluate now but cannot block in the shapes this
		// rule covers.
	case *ast.ReturnStmt:
		lt.checkBlocking(st)
		if key, bad := lt.heldWithoutDefer(); bad {
			lt.pass.Reportf(st.Pos(),
				"return while %s is held with no deferred unlock; use `defer %s.Unlock()` so every return releases it (escape: //simlint:locksafe)",
				key, key)
		}
		lt.terminated = true
	case *ast.IfStmt:
		if st.Init != nil {
			lt.walkStmt(st.Init)
		}
		lt.checkBlocking(st.Cond)
		lt.applyCalls(st.Cond)
		thenBr := lt.clone()
		thenBr.walkStmts(st.Body.List)
		elseBr := lt.clone()
		if st.Else != nil {
			elseBr.walkStmt(st.Else)
		}
		// A branch ending in return/panic doesn't constrain the
		// fall-through state; approximating by intersection of both
		// branch exits is still safe for rule 1 and matches the
		// early-unlock idiom for rule 2.
		lt.join(thenBr, elseBr)
	case *ast.ForStmt:
		if st.Init != nil {
			lt.walkStmt(st.Init)
		}
		lt.checkBlocking(st.Cond)
		body := lt.clone()
		body.walkStmts(st.Body.List)
		if st.Post != nil {
			body.walkStmt(st.Post)
		}
		lt.join(body)
	case *ast.RangeStmt:
		lt.checkBlocking(st.X)
		if key, held := lt.anyHeld(); held {
			if tv, ok := lt.pass.Info().Types[st.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					lt.pass.Reportf(st.Pos(), "range over a channel while %s is held (escape: //simlint:locksafe)", key)
				}
			}
		}
		body := lt.clone()
		body.walkStmts(st.Body.List)
		lt.join(body)
	case *ast.BlockStmt:
		lt.walkStmts(st.List)
	case *ast.SwitchStmt:
		if st.Init != nil {
			lt.walkStmt(st.Init)
		}
		lt.checkBlocking(st.Tag)
		var branches []*lockTracker
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				b := lt.clone()
				b.walkStmts(cc.Body)
				branches = append(branches, b)
			}
		}
		if len(branches) > 0 {
			lt.join(branches...)
		}
	case *ast.TypeSwitchStmt:
		var branches []*lockTracker
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				b := lt.clone()
				b.walkStmts(cc.Body)
				branches = append(branches, b)
			}
		}
		if len(branches) > 0 {
			lt.join(branches...)
		}
	case *ast.SelectStmt:
		// Check only the select header here: a no-default select blocks
		// the critical section. Clause bodies are walked below under
		// their own branch states, so they are not double-reported.
		if key, held := lt.anyHeld(); held {
			hasDefault := false
			for _, c := range st.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
					hasDefault = true
				}
			}
			if !hasDefault {
				lt.pass.Reportf(st.Pos(), "select without default while %s is held; it can park the critical section (escape: //simlint:locksafe)", key)
			}
		}
		var branches []*lockTracker
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				b := lt.clone()
				b.walkStmts(cc.Body)
				branches = append(branches, b)
			}
		}
		if len(branches) > 0 {
			lt.join(branches...)
		}
	case *ast.LabeledStmt:
		lt.walkStmt(st.Stmt)
	case *ast.GoStmt:
		// The spawned body runs outside this critical section; goroleak
		// owns its lifecycle.
	}
}
