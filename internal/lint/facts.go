package lint

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// The fact engine: cross-package behavior summaries.
//
// The original simlint analyzers were strictly single-package — an
// analyzer could see that a loop calls conn.recv, but not that recv
// ultimately blocks on a socket read two packages away. The fact
// engine closes that gap the way golang.org/x/tools/go/analysis facts
// do, but self-contained: after each package is type-checked, a small
// summary (a PackageFacts) is computed for every function — may it
// block, and on what (BlockClass); does it spawn goroutines; does it
// signal completion (WaitGroup.Done, channel send/close); which of its
// results carry wire-derived integers — and recorded in the load-wide
// FactSet. Packages are loaded in `go list -deps` order (dependencies
// first), so by the time a package is summarized, every module package
// it imports already has facts; standard-library behavior is seeded
// from a curated table keyed by go/types full names. Analyzers reach
// the engine through Pass.Facts().
//
// Facts serialize to canonical JSON keyed by the same `go list
// -export` package graph the loader walks: with a cache directory
// configured (simlint -factcache, cached by CI), a package whose
// sources and dependency facts are unchanged reuses its serialized
// summary instead of recomputing.

// FactSchema versions the serialized fact format; a bump invalidates
// every cache entry.
const FactSchema = 1

// BlockClass is a bitmask describing how a function may block.
type BlockClass uint8

// Block classes. A function's Blocks fact is the union over its body
// and its (transitive) callees.
const (
	// BlockChan marks channel sends, receives, selects without a
	// default, ranges over channels, and sync.WaitGroup.Wait.
	BlockChan BlockClass = 1 << iota
	// BlockIO marks host I/O: socket and file reads/writes, dials,
	// accepts, and time.Sleep.
	BlockIO
	// BlockLock marks sync.Mutex/RWMutex acquisition.
	BlockLock
	// BlockCond marks sync.Cond.Wait.
	BlockCond
)

// String renders the class set as "chan|io|lock|cond" (or "none").
func (c BlockClass) String() string {
	var parts []string
	for _, e := range []struct {
		bit  BlockClass
		name string
	}{{BlockChan, "chan"}, {BlockIO, "io"}, {BlockLock, "lock"}, {BlockCond, "cond"}} {
		if c&e.bit != 0 {
			parts = append(parts, e.name)
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, "|")
}

// MayBlock reports whether the class set intersects mask.
func (c BlockClass) MayBlock(mask BlockClass) bool { return c&mask != 0 }

// FuncFact summarizes one function's externally visible behavior.
type FuncFact struct {
	// Blocks is the union of ways the function (or a transitive
	// callee) may block.
	Blocks BlockClass `json:"blocks,omitempty"`
	// Spawns reports that the function (or a transitive callee) starts
	// a goroutine.
	Spawns bool `json:"spawns,omitempty"`
	// Signals reports that the function signals completion to an
	// observer: it calls sync.WaitGroup.Done, sends on a channel, or
	// closes one (directly or through a callee).
	Signals bool `json:"signals,omitempty"`
	// WireResults is a bitmask of result indices whose values derive
	// from wire decoding (encoding/binary reads) without an
	// intervening clamp.
	WireResults uint32 `json:"wire_results,omitempty"`
}

// zero reports whether the fact carries no information (and can be
// omitted from serialization).
func (f FuncFact) zero() bool {
	return f.Blocks == 0 && !f.Spawns && !f.Signals && f.WireResults == 0
}

// PackageFacts is one package's serialized fact summary.
type PackageFacts struct {
	// Schema is the fact format version (FactSchema).
	Schema int `json:"schema"`
	// Path is the package import path.
	Path string `json:"path"`
	// Funcs maps go/types full function names (e.g.
	// "(*pkg.Conn).send") to their facts; zero facts are omitted.
	Funcs map[string]FuncFact `json:"funcs,omitempty"`

	// taintedFields records wire-tainted struct fields ("Type.field")
	// during computation; package-internal, not serialized (unexported
	// fields cannot be read cross-package anyway).
	taintedFields map[string]bool
}

// FactSet holds the facts of every package in one load, plus the
// standard-library seed table.
type FactSet struct {
	pkgs map[string]*PackageFacts
}

// NewFactSet returns an empty fact set (stdlib seeds are always
// available).
func NewFactSet() *FactSet {
	return &FactSet{pkgs: map[string]*PackageFacts{}}
}

// Package returns the recorded facts for the package at path, or nil.
func (s *FactSet) Package(path string) *PackageFacts {
	if s == nil {
		return nil
	}
	return s.pkgs[path]
}

// FuncFact resolves the fact for fn: the standard-library seed table
// first, then the computed per-package tables. Unknown functions get
// the zero fact (assumed non-blocking; docs/LINT.md records the
// approximation).
func (s *FactSet) FuncFact(fn *types.Func) FuncFact {
	if fn == nil {
		return FuncFact{}
	}
	name := fn.FullName()
	if f, ok := stdlibFacts[name]; ok {
		return f
	}
	if s == nil || fn.Pkg() == nil {
		return FuncFact{}
	}
	pf := s.pkgs[fn.Pkg().Path()]
	if pf == nil {
		return FuncFact{}
	}
	return pf.Funcs[name]
}

// stdlibFacts seeds behavior for standard-library functions and
// interface methods the repo's concurrency code flows through. Keys
// are go/types full names; interface methods use the interface's name
// ("(io.Reader).Read"), so calls through any implementation resolve.
var stdlibFacts = map[string]FuncFact{
	// sync: joins, condition variables, locks.
	"(*sync.WaitGroup).Wait": {Blocks: BlockChan},
	"(*sync.WaitGroup).Done": {Signals: true},
	"(*sync.Cond).Wait":      {Blocks: BlockCond},
	"(*sync.Mutex).Lock":     {Blocks: BlockLock},
	"(*sync.RWMutex).Lock":   {Blocks: BlockLock},
	"(*sync.RWMutex).RLock":  {Blocks: BlockLock},
	// time.
	"time.Sleep": {Blocks: BlockIO},
	// io.
	"io.ReadFull":       {Blocks: BlockIO},
	"io.ReadAtLeast":    {Blocks: BlockIO},
	"io.ReadAll":        {Blocks: BlockIO},
	"io.Copy":           {Blocks: BlockIO},
	"io.CopyN":          {Blocks: BlockIO},
	"(io.Reader).Read":  {Blocks: BlockIO},
	"(io.Writer).Write": {Blocks: BlockIO},
	// bufio.
	"(*bufio.Reader).Read":       {Blocks: BlockIO},
	"(*bufio.Reader).ReadByte":   {Blocks: BlockIO},
	"(*bufio.Reader).ReadBytes":  {Blocks: BlockIO},
	"(*bufio.Reader).ReadString": {Blocks: BlockIO},
	"(*bufio.Reader).ReadSlice":  {Blocks: BlockIO},
	"(*bufio.Reader).Peek":       {Blocks: BlockIO},
	"(*bufio.Reader).Discard":    {Blocks: BlockIO},
	"(*bufio.Scanner).Scan":      {Blocks: BlockIO},
	"(*bufio.Writer).Write":      {Blocks: BlockIO},
	"(*bufio.Writer).Flush":      {Blocks: BlockIO},
	// net.
	"net.Dial":                  {Blocks: BlockIO},
	"net.DialTimeout":           {Blocks: BlockIO},
	"net.Listen":                {Blocks: BlockIO},
	"(*net.Dialer).Dial":        {Blocks: BlockIO},
	"(*net.Dialer).DialContext": {Blocks: BlockIO},
	"(net.Listener).Accept":     {Blocks: BlockIO},
	"(net.Conn).Read":           {Blocks: BlockIO},
	"(net.Conn).Write":          {Blocks: BlockIO},
	"(*net.TCPListener).Accept": {Blocks: BlockIO},
	// os.
	"(*os.File).Read":    {Blocks: BlockIO},
	"(*os.File).ReadAt":  {Blocks: BlockIO},
	"(*os.File).Write":   {Blocks: BlockIO},
	"(*os.File).WriteAt": {Blocks: BlockIO},
	"(*os.File).Sync":    {Blocks: BlockIO},
	"os.ReadFile":        {Blocks: BlockIO},
	"os.WriteFile":       {Blocks: BlockIO},
	// os/exec.
	"(*os/exec.Cmd).Run":            {Blocks: BlockIO},
	"(*os/exec.Cmd).Wait":           {Blocks: BlockIO},
	"(*os/exec.Cmd).Output":         {Blocks: BlockIO},
	"(*os/exec.Cmd).CombinedOutput": {Blocks: BlockIO},
	// net/http.
	"(*net/http.Client).Do":             {Blocks: BlockIO},
	"(*net/http.Client).Get":            {Blocks: BlockIO},
	"(*net/http.Client).Post":           {Blocks: BlockIO},
	"net/http.ListenAndServe":           {Blocks: BlockIO},
	"(*net/http.Server).ListenAndServe": {Blocks: BlockIO},
	"(*net/http.Server).Serve":          {Blocks: BlockIO},
	"(*net/http.Server).Shutdown":       {Blocks: BlockIO},
	// encoding/json stream decoding reads from the underlying reader.
	"(*encoding/json.Decoder).Decode": {Blocks: BlockIO},
	// encoding/binary: the wire-integer sources boundalloc taints.
	"encoding/binary.Uvarint":               {WireResults: 1},
	"encoding/binary.Varint":                {WireResults: 1},
	"encoding/binary.ReadUvarint":           {Blocks: BlockIO, WireResults: 1},
	"encoding/binary.ReadVarint":            {Blocks: BlockIO, WireResults: 1},
	"(encoding/binary.ByteOrder).Uint16":    {WireResults: 1},
	"(encoding/binary.ByteOrder).Uint32":    {WireResults: 1},
	"(encoding/binary.ByteOrder).Uint64":    {WireResults: 1},
	"(encoding/binary.littleEndian).Uint16": {WireResults: 1},
	"(encoding/binary.littleEndian).Uint32": {WireResults: 1},
	"(encoding/binary.littleEndian).Uint64": {WireResults: 1},
	"(encoding/binary.bigEndian).Uint16":    {WireResults: 1},
	"(encoding/binary.bigEndian).Uint32":    {WireResults: 1},
	"(encoding/binary.bigEndian).Uint64":    {WireResults: 1},
}

// calleeFunc resolves a call expression's static callee, or nil for
// dynamic calls (function values), builtins and conversions.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// isBuiltin reports whether the call invokes the named builtin.
func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = info.Uses[id].(*types.Builtin)
	return ok
}

// addPackageFacts computes and records facts for one unit. Non-test
// files only: the analyzers that consume facts skip _test.go files,
// and test helpers would only widen the summaries. Iterates to a
// fixpoint so intra-package (mutual) recursion converges.
func (s *FactSet) addPackageFacts(u *Unit) *PackageFacts {
	pf := &PackageFacts{
		Schema:        FactSchema,
		Path:          u.Path,
		Funcs:         map[string]FuncFact{},
		taintedFields: map[string]bool{},
	}
	s.pkgs[u.Path] = pf

	type fnDecl struct {
		obj  *types.Func
		decl *ast.FuncDecl
	}
	var fns []fnDecl
	for _, f := range u.Files {
		if strings.HasSuffix(u.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := u.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			fns = append(fns, fnDecl{obj: obj, decl: fd})
		}
	}
	// Fixpoint: facts only grow (bit union), so iteration terminates.
	for changed := true; changed; {
		changed = false
		for _, fd := range fns {
			ff := behaviorFact(u, s, fd.decl.Body)
			ff.WireResults = wireResultFact(u, s, pf, fd.obj, fd.decl)
			key := fd.obj.FullName()
			if pf.Funcs[key] != ff {
				pf.Funcs[key] = ff
				changed = true
			}
		}
	}
	for k, f := range pf.Funcs {
		if f.zero() {
			delete(pf.Funcs, k)
		}
	}
	return pf
}

// behaviorFact computes the Blocks/Spawns/Signals components for one
// function body. Goroutine bodies are excluded (they run
// asynchronously; their spawn is recorded, not their blocking), but
// deferred and stored closures are included — a safe
// over-approximation.
func behaviorFact(u *Unit, s *FactSet, body ast.Node) FuncFact {
	var ff FuncFact
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			ff.Spawns = true
			return false
		case *ast.SendStmt:
			ff.Blocks |= BlockChan
			ff.Signals = true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				ff.Blocks |= BlockChan
			}
		case *ast.RangeStmt:
			if tv, ok := u.Info.Types[n.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					ff.Blocks |= BlockChan
				}
			}
		case *ast.SelectStmt:
			// A select with a default case never blocks; walk only the
			// clause bodies so its comm operations are not miscounted.
			hasDefault := false
			for _, c := range n.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
					hasDefault = true
				}
			}
			if !hasDefault {
				ff.Blocks |= BlockChan
				return true
			}
			for _, c := range n.Body.List {
				if cc, ok := c.(*ast.CommClause); ok {
					for _, st := range cc.Body {
						ast.Inspect(st, walk)
					}
				}
			}
			return false
		case *ast.CallExpr:
			if isBuiltin(u.Info, n, "close") {
				ff.Signals = true
				return true
			}
			if fn := calleeFunc(u.Info, n); fn != nil {
				cf := s.FuncFact(fn)
				ff.Blocks |= cf.Blocks
				ff.Signals = ff.Signals || cf.Signals
				ff.Spawns = ff.Spawns || cf.Spawns
			}
		}
		return true
	}
	ast.Inspect(body, walk)
	return ff
}

// wireResultFact computes the WireResults bitmask for one declared
// function: the taint engine runs over the body and every return
// statement's tainted (unclamped) expressions mark their result
// index. Struct fields assigned unclamped wire values taint reads of
// the same field within the package, so accessor methods propagate.
func wireResultFact(u *Unit, s *FactSet, pf *PackageFacts, obj *types.Func, decl *ast.FuncDecl) uint32 {
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return 0
	}
	var mask uint32
	tw := newTaintWalker(u, s, pf)
	tw.onReturn = func(ret *ast.ReturnStmt) {
		for i, e := range ret.Results {
			if i < 32 && tw.tainted(e) {
				mask |= 1 << uint(i)
			}
		}
	}
	tw.walkBody(decl.Body)
	return mask
}

// taintWalker tracks, in statement order, which local variables carry
// unclamped wire-derived values. It deliberately approximates: taint
// propagates through arithmetic, conversions and multi-assignment; any
// guarding comparison that mentions a tainted variable clamps it (the
// canonical clamp compares against a named constant, but an equality
// check against a structurally implied size is just as binding); and
// control flow inside branches is walked with the current state. The
// analyzers built on it (boundalloc) only need "allocated with no
// prior validation at all" to be reliable.
type taintWalker struct {
	u   *Unit
	set *FactSet
	pf  *PackageFacts

	vars map[types.Object]bool

	// onReturn, onAlloc and onAssign are the client hooks; nil hooks
	// are skipped. onAlloc fires for make() size/cap arguments and
	// io.CopyN-style byte counts that are tainted at that point.
	onReturn func(*ast.ReturnStmt)
	onAlloc  func(pos token.Pos, what string, expr ast.Expr)
}

// newTaintWalker builds a walker over one function body.
func newTaintWalker(u *Unit, s *FactSet, pf *PackageFacts) *taintWalker {
	return &taintWalker{u: u, set: s, pf: pf, vars: map[types.Object]bool{}}
}

// fieldKey names a struct field for package-local field taint, or ""
// when the selector is not a field of a package-local named type.
func (t *taintWalker) fieldKey(sel *ast.SelectorExpr) string {
	s, ok := t.u.Info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return ""
	}
	recv := s.Recv()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != t.u.Path {
		return ""
	}
	return named.Obj().Name() + "." + sel.Sel.Name
}

// tainted reports whether the expression carries unclamped wire data.
func (t *taintWalker) tainted(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident:
		obj := t.u.Info.Uses[e]
		if obj == nil {
			obj = t.u.Info.Defs[e]
		}
		return obj != nil && t.vars[obj]
	case *ast.ParenExpr:
		return t.tainted(e.X)
	case *ast.UnaryExpr:
		return t.tainted(e.X)
	case *ast.BinaryExpr:
		return t.tainted(e.X) || t.tainted(e.Y)
	case *ast.SelectorExpr:
		if key := t.fieldKey(e); key != "" && t.pf != nil && t.pf.taintedFields[key] {
			return true
		}
		return false
	case *ast.CallExpr:
		// A conversion propagates its operand's taint; min/max against
		// any bound is a clamp; a call with a wire-derived first result
		// is a source.
		if tv, ok := t.u.Info.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
			return t.tainted(e.Args[0])
		}
		if isBuiltin(t.u.Info, e, "min") || isBuiltin(t.u.Info, e, "max") {
			return false
		}
		if fn := calleeFunc(t.u.Info, e); fn != nil {
			return t.set.FuncFact(fn).WireResults&1 != 0
		}
	}
	return false
}

// clampCond clears the taint of every variable (and package-local
// field) mentioned in a comparison inside the condition expression.
func (t *taintWalker) clampCond(cond ast.Expr) {
	ast.Inspect(cond, func(n ast.Node) bool {
		bin, ok := n.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		switch bin.Op {
		case token.EQL, token.NEQ, token.LSS, token.GTR, token.LEQ, token.GEQ:
			t.clampExpr(bin.X)
			t.clampExpr(bin.Y)
		}
		return true
	})
}

// clampExpr clears taint from every identifier and field reached by
// the expression.
func (t *taintWalker) clampExpr(e ast.Expr) {
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if obj := t.u.Info.Uses[n]; obj != nil {
				delete(t.vars, obj)
			}
		case *ast.SelectorExpr:
			if key := t.fieldKey(n); key != "" && t.pf != nil {
				delete(t.pf.taintedFields, key)
			}
		}
		return true
	})
}

// assign records the taint flowing from one assignment or define.
func (t *taintWalker) assign(st *ast.AssignStmt) {
	// Multi-value call: x, n := wireFn(...) taints per result bit.
	if len(st.Rhs) == 1 && len(st.Lhs) > 1 {
		if call, ok := ast.Unparen(st.Rhs[0]).(*ast.CallExpr); ok {
			var mask uint32
			if fn := calleeFunc(t.u.Info, call); fn != nil {
				mask = t.set.FuncFact(fn).WireResults
			}
			for i, lhs := range st.Lhs {
				t.setTaint(lhs, i < 32 && mask&(1<<uint(i)) != 0)
			}
			return
		}
	}
	for i, lhs := range st.Lhs {
		if i < len(st.Rhs) {
			t.setTaint(lhs, t.tainted(st.Rhs[i]))
		}
	}
}

// setTaint marks or clears one assignment target.
func (t *taintWalker) setTaint(lhs ast.Expr, tainted bool) {
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		obj := t.u.Info.Defs[lhs]
		if obj == nil {
			obj = t.u.Info.Uses[lhs]
		}
		if obj == nil {
			return
		}
		if tainted {
			t.vars[obj] = true
		} else {
			delete(t.vars, obj)
		}
	case *ast.SelectorExpr:
		if key := t.fieldKey(lhs); key != "" && t.pf != nil && tainted {
			t.pf.taintedFields[key] = true
		}
	}
}

// checkAlloc fires the onAlloc hook for tainted allocation sizes in
// the expression: make() size/cap arguments and io.CopyN byte counts.
func (t *taintWalker) checkAlloc(e ast.Expr) {
	if t.onAlloc == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isBuiltin(t.u.Info, call, "make") {
			for i, arg := range call.Args[1:] {
				if t.tainted(arg) {
					what := "size"
					if i == 1 {
						what = "capacity"
					}
					t.onAlloc(arg.Pos(), "make "+what, arg)
				}
			}
		}
		if fn := calleeFunc(t.u.Info, call); fn != nil && fn.FullName() == "io.CopyN" && len(call.Args) == 3 {
			if t.tainted(call.Args[2]) {
				t.onAlloc(call.Args[2].Pos(), "io.CopyN byte count", call.Args[2])
			}
		}
		return true
	})
}

// recordComposite taints package-local fields set from tainted values
// in composite literals (T{field: wireValue}).
func (t *taintWalker) recordComposite(e ast.Expr) {
	ast.Inspect(e, func(n ast.Node) bool {
		lit, ok := n.(*ast.CompositeLit)
		if !ok {
			return true
		}
		tv, ok := t.u.Info.Types[lit]
		if !ok {
			return true
		}
		typ := tv.Type
		if ptr, ok := typ.(*types.Pointer); ok {
			typ = ptr.Elem()
		}
		named, ok := typ.(*types.Named)
		if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != t.u.Path {
			return true
		}
		for _, el := range lit.Elts {
			kv, ok := el.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			key, ok := kv.Key.(*ast.Ident)
			if !ok {
				continue
			}
			if t.tainted(kv.Value) && t.pf != nil {
				t.pf.taintedFields[named.Obj().Name()+"."+key.Name] = true
			}
		}
		return true
	})
}

// walkBody runs the walker over a function body in statement order.
func (t *taintWalker) walkBody(body *ast.BlockStmt) {
	if body == nil {
		return
	}
	t.walkStmts(body.List)
}

// walkStmts processes a statement list linearly, descending into
// branch and loop bodies with the current state (branch-local taint
// effects are a safe over-approximation for a lint).
func (t *taintWalker) walkStmts(stmts []ast.Stmt) {
	for _, st := range stmts {
		t.walkStmt(st)
	}
}

// walkStmt processes one statement.
func (t *taintWalker) walkStmt(st ast.Stmt) {
	switch st := st.(type) {
	case *ast.AssignStmt:
		for _, rhs := range st.Rhs {
			t.checkAlloc(rhs)
			t.recordComposite(rhs)
		}
		t.assign(st)
	case *ast.ExprStmt:
		t.checkAlloc(st.X)
	case *ast.DeferStmt:
		t.checkAlloc(st.Call)
	case *ast.GoStmt:
		// Runs asynchronously; argument expressions still evaluate here.
		for _, a := range st.Call.Args {
			t.checkAlloc(a)
		}
	case *ast.ReturnStmt:
		for _, e := range st.Results {
			t.checkAlloc(e)
			t.recordComposite(e)
		}
		if t.onReturn != nil {
			t.onReturn(st)
		}
	case *ast.IfStmt:
		if st.Init != nil {
			t.walkStmt(st.Init)
		}
		t.checkAlloc(st.Cond)
		t.clampCond(st.Cond)
		t.walkStmts(st.Body.List)
		if st.Else != nil {
			t.walkStmt(st.Else)
		}
	case *ast.ForStmt:
		if st.Init != nil {
			t.walkStmt(st.Init)
		}
		if st.Cond != nil {
			t.clampCond(st.Cond)
		}
		t.walkStmts(st.Body.List)
		if st.Post != nil {
			t.walkStmt(st.Post)
		}
	case *ast.RangeStmt:
		t.walkStmts(st.Body.List)
	case *ast.BlockStmt:
		t.walkStmts(st.List)
	case *ast.SwitchStmt:
		if st.Init != nil {
			t.walkStmt(st.Init)
		}
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				t.walkStmts(cc.Body)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				t.walkStmts(cc.Body)
			}
		}
	case *ast.SelectStmt:
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				t.walkStmts(cc.Body)
			}
		}
	case *ast.LabeledStmt:
		t.walkStmt(st.Stmt)
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if i < len(vs.Values) {
						t.checkAlloc(vs.Values[i])
						if obj := t.u.Info.Defs[name]; obj != nil && t.tainted(vs.Values[i]) {
							t.vars[obj] = true
						}
					}
				}
			}
		}
	}
}

// Serialization: canonical JSON keyed by the export graph.

// encodeFacts renders a package's facts as canonical JSON (maps
// marshal with sorted keys, so equal facts are byte-equal).
func encodeFacts(pf *PackageFacts) ([]byte, error) {
	return json.MarshalIndent(pf, "", "  ")
}

// decodeFacts parses a serialized package fact summary, rejecting
// schema mismatches.
func decodeFacts(data []byte, wantPath string) (*PackageFacts, error) {
	var pf PackageFacts
	if err := json.Unmarshal(data, &pf); err != nil {
		return nil, fmt.Errorf("lint: decoding facts: %v", err)
	}
	if pf.Schema != FactSchema {
		return nil, fmt.Errorf("lint: fact schema %d, want %d", pf.Schema, FactSchema)
	}
	if pf.Path != wantPath {
		return nil, fmt.Errorf("lint: facts for %q, want %q", pf.Path, wantPath)
	}
	if pf.Funcs == nil {
		pf.Funcs = map[string]FuncFact{}
	}
	pf.taintedFields = map[string]bool{}
	return &pf, nil
}

// factCacheKey derives the cache filename for one package: a digest of
// the fact schema, the import path, every source file's content, and
// the (already canonical) serialized facts of its module dependencies
// — the same dependency graph `go list -export` walked, so a change
// anywhere below a package invalidates its entry.
func factCacheKey(u *Unit, depFacts [][]byte, srcs [][]byte) string {
	h := sha256.New()
	fmt.Fprintf(h, "simlint-facts/%d\n%s\n", FactSchema, u.Path)
	for _, src := range srcs {
		h.Write(src)
		h.Write([]byte{0})
	}
	for _, df := range depFacts {
		h.Write(df)
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// loadOrComputeFacts resolves one unit's facts through the cache
// directory (when set), falling back to computation. depFacts are the
// serialized facts of the unit's module imports in sorted import-path
// order; srcs the unit's non-test source file contents.
func (s *FactSet) loadOrComputeFacts(u *Unit, cacheDir string, depFacts [][]byte, srcs [][]byte) ([]byte, error) {
	if cacheDir == "" {
		pf := s.addPackageFacts(u)
		return encodeFacts(pf)
	}
	key := factCacheKey(u, depFacts, srcs)
	path := filepath.Join(cacheDir, key+".json")
	if data, err := os.ReadFile(path); err == nil {
		if pf, err := decodeFacts(data, u.Path); err == nil {
			s.pkgs[u.Path] = pf
			return data, nil
		}
		// Corrupt or stale-schema entry: fall through and recompute.
	}
	pf := s.addPackageFacts(u)
	data, err := encodeFacts(pf)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cacheDir, 0o755); err != nil {
		return data, nil // cache unwritable: facts still computed
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err == nil {
		os.Rename(tmp, path)
	}
	return data, nil
}

// computeAllFacts populates the fact set for units in load order
// (dependencies first, the `go list -deps` contract), consulting the
// cache directory when configured. Returns the serialized facts per
// path so dependents can key their cache entries on them.
func computeAllFacts(units []*Unit, cacheDir string) (*FactSet, error) {
	set := NewFactSet()
	encoded := map[string][]byte{}
	for _, u := range units {
		var depFacts [][]byte
		var depPaths []string
		for _, imp := range u.Pkg.Imports() {
			if _, ok := encoded[imp.Path()]; ok {
				depPaths = append(depPaths, imp.Path())
			}
		}
		sort.Strings(depPaths)
		for _, p := range depPaths {
			depFacts = append(depFacts, encoded[p])
		}
		var srcs [][]byte
		if cacheDir != "" {
			for _, f := range u.Files {
				name := u.Fset.Position(f.Pos()).Filename
				if strings.HasSuffix(name, "_test.go") {
					continue
				}
				data, err := os.ReadFile(name)
				if err != nil {
					return nil, fmt.Errorf("lint: hashing %s: %v", name, err)
				}
				srcs = append(srcs, data)
			}
		}
		data, err := set.loadOrComputeFacts(u, cacheDir, depFacts, srcs)
		if err != nil {
			return nil, err
		}
		encoded[u.Path] = data
		u.Facts = set
	}
	return set, nil
}
