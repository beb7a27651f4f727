// Package guardedby makes lock discipline a compile-time invariant for the
// repository's shared mutable state.
//
// The fleet-scale structures — the sharded solve cache, the compiled
// decision-table set, the telemetry registry and trace ring, the server's
// session table — are mutated concurrently by design, and today their lock
// protocols live in comments ("Callers hold s.mu") enforced only when a
// `-race` run happens to drive the bad interleaving. ABR controllers fail in
// production through exactly such rare interleavings, so the protocol is
// promoted to an annotation the analyzer checks on every build:
//
//	type shard struct {
//		mu sync.Mutex
//		//soda:guard mu
//		entries []slot
//	}
//
// A field annotated `//soda:guard <mutexField>` (in its doc or line comment)
// may only be read or written while the *same object's* mutex field is held
// on every intra-procedural path, or through a sync/atomic call taking the
// field's address. The mutex must be a sibling field of sync.Mutex or
// sync.RWMutex type. Fields of generic structs are matched through their
// origin, so an access through any instantiation — including the receiver's
// own type parameters in a method of `Ring[T]` — is checked against the
// annotated declaration. Holding is tracked syntactically per function body:
// `x.mu.Lock()` (or RLock) puts `x.mu` into the held set, `Unlock`/`RUnlock`
// removes it, `defer x.mu.Unlock()` holds it to function exit, and branch
// exits merge by intersection (a branch that returns does not constrain the
// code after it). The object identity is the printed base expression — the
// analyzer does not chase aliases, so code that locks `c.shards[i].mu` must
// access the fields through the same spelling or a single local (`sh :=
// &c.shards[i]; sh.mu.Lock(); sh.hits++`), which is the repository idiom
// anyway.
//
// Two escape hatches keep the annotation honest instead of noisy:
//
//   - `//soda:locked <mutexField>` on a method declares that callers hold the
//     receiver's mutex on entry — the machine-checked form of the "Callers
//     hold s.mu" comment. The method body is then checked with that lock
//     pre-held (and the no-blocking rule below applies to the whole body).
//   - Objects freshly allocated in the current function (`x := &T{...}`,
//     `new(T)`, a value composite literal) are exempt: until the object
//     escapes, no other goroutine can see it, which is what makes
//     constructors lock-free.
//
// While any annotated mutex is held the function must not block: channel
// sends/receives, select, range over a channel, `time.Sleep`, and calls into
// the blocking stdlib surfaces (os, net, net/http, syscall) are findings.
// A lock that serializes a sub-microsecond decision path must never wait on
// the network — that is how tail latency gets into ABR control loops.
//
// Known false negatives (documented, accepted): aliasing through a second
// variable, locks passed across call boundaries without `//soda:locked`,
// method-level blocking (wg.Wait(), rwmu.Lock() on foreign objects), and
// fields reached through pointers stored elsewhere. The analyzer is a
// discipline check, not an escape analysis; `-race` conformance suites
// remain the dynamic backstop.
package guardedby

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint"
)

// Directive is the field annotation prefix; the rest of the line names the
// sibling mutex field.
const Directive = "//soda:guard"

// LockedDirective is the function annotation prefix declaring the receiver's
// named mutex held on entry.
const LockedDirective = "//soda:locked"

// Analyzer is the guardedby analyzer.
var Analyzer = &lint.Analyzer{
	Name: "guardedby",
	Doc: "enforces that //soda:guard-annotated struct fields are only accessed with " +
		"their mutex held (or via sync/atomic), and that no blocking call happens under " +
		"an annotated lock",
	Run: run,
}

// blockingPackages are import paths whose package-level calls may block on
// the outside world; they are forbidden while an annotated lock is held.
var blockingPackages = map[string]bool{
	"os":       true,
	"net":      true,
	"net/http": true,
	"syscall":  true,
}

// guardKey identifies one annotated field: the defining struct type's field
// object.
type guardInfo struct {
	mutex string // sibling mutex field name
}

func run(pass *lint.Pass) error {
	owners := ownerIndex(pass.Pkg)
	guards := collectGuards(pass, owners)
	if len(guards) == 0 {
		return nil
	}
	// trackedMutexes: (struct type, mutex field name) pairs that guard at
	// least one annotated field. Lock-state tracking and the no-blocking rule
	// apply only to these, so unrelated mutexes stay unconstrained.
	tracked := make(map[types.Object]bool)
	for field, g := range guards {
		if mu := siblingField(owners, field, g.mutex); mu != nil {
			tracked[mu] = true
		}
	}

	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd, guards, tracked)
		}
	}
	return nil
}

// collectGuards finds every //soda:guard annotation in the package's struct
// declarations and resolves it to the field's types.Var. Malformed
// annotations are reported as findings rather than errors, so a typo cannot
// silently drop the protection.
func collectGuards(pass *lint.Pass, owners map[*types.Var]*types.Struct) map[*types.Var]guardInfo {
	guards := make(map[*types.Var]guardInfo)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				mutexName, pos, ok := fieldDirective(field)
				if !ok {
					continue
				}
				if mutexName == "" {
					pass.Reportf(pos, "%s needs a mutex field name: //soda:guard <mutexField>", Directive)
					continue
				}
				for _, name := range field.Names {
					obj, ok := pass.TypesInfo.Defs[name].(*types.Var)
					if !ok {
						continue
					}
					mu := siblingField(owners, obj, mutexName)
					switch {
					case mu == nil:
						pass.Reportf(pos, "field %s is guarded by %q, which is not a field of the same struct", name.Name, mutexName)
					case !isMutexType(mu.Type()):
						pass.Reportf(pos, "field %s is guarded by %s, which is not a sync.Mutex or sync.RWMutex", name.Name, mutexName)
					default:
						guards[obj] = guardInfo{mutex: mutexName}
					}
				}
			}
			return true
		})
	}
	return guards
}

// fieldDirective extracts the //soda:guard annotation from a struct field's
// doc or trailing line comment.
func fieldDirective(field *ast.Field) (mutex string, pos token.Pos, ok bool) {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if name, found := directiveArg(c.Text, Directive); found {
				return name, c.Pos(), true
			}
		}
	}
	return "", token.NoPos, false
}

// directiveArg matches a directive comment and returns its first argument
// token; trailing commentary (including fixture want annotations) is ignored.
func directiveArg(text, directive string) (arg string, ok bool) {
	text = strings.TrimSpace(text)
	if text == directive {
		return "", true
	}
	rest, found := strings.CutPrefix(text, directive+" ")
	if !found {
		return "", false
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return "", true
	}
	return fields[0], true
}

// siblingField resolves name to a field of the struct that declares field.
func siblingField(owners map[*types.Var]*types.Struct, field *types.Var, name string) *types.Var {
	owner := owners[field]
	if owner == nil {
		return nil
	}
	for i := 0; i < owner.NumFields(); i++ {
		if f := owner.Field(i); f.Name() == name {
			return f
		}
	}
	return nil
}

// ownerIndex maps every field object of the package's named struct types
// back to its defining struct. go/types gives no direct edge; unnamed
// structs are out of scope (annotated structs are always named in practice).
func ownerIndex(pkg *types.Package) map[*types.Var]*types.Struct {
	owners := make(map[*types.Var]*types.Struct)
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			owners[st.Field(i)] = st
		}
	}
	return owners
}

// isMutexType reports whether t is sync.Mutex or sync.RWMutex (possibly
// behind a pointer).
func isMutexType(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// lockState is the set of held annotated mutexes, keyed by the canonical
// printed expression ("sh.mu", "c.shards[i].mu").
type lockState map[string]bool

func (s lockState) clone() lockState {
	out := make(lockState, len(s))
	for k := range s {
		out[k] = true
	}
	return out
}

// intersect keeps only locks held in both states.
func intersect(a, b lockState) lockState {
	out := make(lockState)
	for k := range a {
		if b[k] {
			out[k] = true
		}
	}
	return out
}

// checker carries one function's analysis context.
type checker struct {
	pass    *lint.Pass
	guards  map[*types.Var]guardInfo
	tracked map[types.Object]bool
	fresh   map[types.Object]bool // locals holding freshly allocated objects
	fname   string
}

func checkFunc(pass *lint.Pass, fd *ast.FuncDecl, guards map[*types.Var]guardInfo, tracked map[types.Object]bool) {
	c := &checker{
		pass:    pass,
		guards:  guards,
		tracked: tracked,
		fresh:   make(map[types.Object]bool),
		fname:   funcName(fd),
	}
	state := make(lockState)
	if mutexName, pos, ok := lockedDirective(fd); ok {
		recv := receiverName(fd)
		switch {
		case recv == "":
			pass.Reportf(pos, "%s on %s, which has no named receiver", LockedDirective, c.fname)
		case mutexName == "":
			pass.Reportf(pos, "%s needs a mutex field name: //soda:locked <mutexField>", LockedDirective)
		default:
			state[recv+"."+mutexName] = true
		}
	}
	c.scanBlock(state, fd.Body.List)
}

// lockedDirective extracts //soda:locked from a function's doc comment.
func lockedDirective(fd *ast.FuncDecl) (mutex string, pos token.Pos, ok bool) {
	if fd.Doc == nil {
		return "", token.NoPos, false
	}
	for _, cm := range fd.Doc.List {
		if name, found := directiveArg(cm.Text, LockedDirective); found {
			return name, cm.Pos(), true
		}
	}
	return "", token.NoPos, false
}

func receiverName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return ""
	}
	return fd.Recv.List[0].Names[0].Name
}

func funcName(fd *ast.FuncDecl) string {
	if name := lint.ReceiverType(fd); name != "" {
		return "(" + name + ")." + fd.Name.Name
	}
	return fd.Name.Name
}

// scanBlock walks one statement list in source order, threading the lock
// state through. It returns true when the list definitely terminates
// (return, panic) so callers can discard that branch's exit state.
func (c *checker) scanBlock(state lockState, stmts []ast.Stmt) (terminated bool) {
	for _, stmt := range stmts {
		if c.scanStmt(state, stmt) {
			return true
		}
	}
	return false
}

func (c *checker) scanStmt(state lockState, stmt ast.Stmt) (terminated bool) {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		if c.lockTransition(state, s.X) {
			return false
		}
		c.scanExpr(state, s.X)
	case *ast.DeferStmt:
		// A deferred Unlock runs at function exit: the lock stays held for
		// the rest of the body, which is exactly what leaving the state
		// untouched models. Other deferred calls are scanned as expressions
		// (their argument evaluation happens now); a deferred closure body
		// runs under an unknown state, so it is scanned fresh.
		if key, unlock := c.mutexCall(s.Call); key != "" && unlock {
			return false
		}
		c.scanExpr(state, s.Call)
	case *ast.AssignStmt:
		for i, rhs := range s.Rhs {
			c.scanExpr(state, rhs)
			if i < len(s.Lhs) {
				c.markFresh(s.Lhs[i], rhs)
			}
		}
		for _, lhs := range s.Lhs {
			c.scanExpr(state, lhs)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, v := range vs.Values {
					c.scanExpr(state, v)
					if i < len(vs.Names) {
						c.markFresh(vs.Names[i], v)
					}
				}
			}
		}
	case *ast.IncDecStmt:
		c.scanExpr(state, s.X)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			c.scanExpr(state, r)
		}
		return true
	case *ast.IfStmt:
		if s.Init != nil {
			c.scanStmt(state, s.Init)
		}
		c.scanExpr(state, s.Cond)
		thenState := state.clone()
		thenTerm := c.scanBlock(thenState, s.Body.List)
		elseState := state.clone()
		elseTerm := false
		if s.Else != nil {
			elseTerm = c.scanStmt(elseState, s.Else)
		}
		c.merge(state, thenState, thenTerm, elseState, elseTerm)
		return thenTerm && elseTerm && s.Else != nil
	case *ast.BlockStmt:
		return c.scanBlock(state, s.List)
	case *ast.ForStmt:
		if s.Init != nil {
			c.scanStmt(state, s.Init)
		}
		if s.Cond != nil {
			c.scanExpr(state, s.Cond)
		}
		bodyState := state.clone()
		c.scanBlock(bodyState, s.Body.List)
		if s.Post != nil {
			c.scanStmt(bodyState, s.Post)
		}
		// The loop may run zero times; keep only locks held on both the
		// skip path and the body exit path.
		c.replace(state, intersect(state, bodyState))
	case *ast.RangeStmt:
		c.scanExpr(state, s.X)
		if tv, ok := c.pass.TypesInfo.Types[s.X]; ok {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				c.reportBlocked(state, s.For, "range over a channel")
			}
		}
		bodyState := state.clone()
		c.scanBlock(bodyState, s.Body.List)
		c.replace(state, intersect(state, bodyState))
	case *ast.SwitchStmt:
		if s.Init != nil {
			c.scanStmt(state, s.Init)
		}
		if s.Tag != nil {
			c.scanExpr(state, s.Tag)
		}
		c.scanCases(state, s.Body.List)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			c.scanStmt(state, s.Init)
		}
		c.scanStmt(state, s.Assign)
		c.scanCases(state, s.Body.List)
	case *ast.SelectStmt:
		c.reportBlocked(state, s.Select, "select")
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CommClause); ok {
				cs := state.clone()
				c.scanBlock(cs, cc.Body)
			}
		}
	case *ast.SendStmt:
		c.reportBlocked(state, s.Arrow, "channel send")
		c.scanExpr(state, s.Chan)
		c.scanExpr(state, s.Value)
	case *ast.GoStmt:
		// The goroutine body runs under an unknown lock state.
		c.scanExpr(state, s.Call.Fun)
		for _, a := range s.Call.Args {
			c.scanExpr(state, a)
		}
	case *ast.LabeledStmt:
		return c.scanStmt(state, s.Stmt)
	case *ast.BranchStmt:
		// break/continue/goto: treat as non-terminating and let the
		// enclosing loop's conservative merge absorb the imprecision.
	}
	return false
}

// scanCases analyzes switch case bodies, merging exit states by intersection
// over the non-terminating branches.
func (c *checker) scanCases(state lockState, clauses []ast.Stmt) {
	merged := state.clone() // the no-case-matches path keeps the entry state
	for _, clause := range clauses {
		cc, ok := clause.(*ast.CaseClause)
		if !ok {
			continue
		}
		for _, e := range cc.List {
			c.scanExpr(state, e)
		}
		cs := state.clone()
		if !c.scanBlock(cs, cc.Body) {
			merged = intersect(merged, cs)
		}
	}
	c.replace(state, merged)
}

// merge folds two branch exit states back into state: terminated branches
// do not constrain the continuation.
func (c *checker) merge(state, a lockState, aTerm bool, b lockState, bTerm bool) {
	switch {
	case aTerm && bTerm:
		// both branches left; the continuation is unreachable unless there
		// was no else — callers handle that by passing b = entry clone.
		c.replace(state, b)
	case aTerm:
		c.replace(state, b)
	case bTerm:
		c.replace(state, a)
	default:
		c.replace(state, intersect(a, b))
	}
}

func (c *checker) replace(state, with lockState) {
	for k := range state {
		delete(state, k)
	}
	for k := range with {
		state[k] = true
	}
}

// lockTransition updates state for x.mu.Lock()/Unlock() calls on tracked
// mutexes, reporting double-lock. Returns true when the expression was a
// lock-state transition (so it is not re-scanned as a plain expression).
func (c *checker) lockTransition(state lockState, e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	key, unlock := c.mutexCall(call)
	if key == "" {
		return false
	}
	if unlock {
		delete(state, key)
	} else {
		state[key] = true
	}
	return true
}

// mutexCall matches x.<mu>.Lock/RLock/Unlock/RUnlock() where <mu> is a
// tracked mutex field, returning the canonical key and whether it releases.
func (c *checker) mutexCall(call *ast.CallExpr) (key string, unlock bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	var isUnlock bool
	switch sel.Sel.Name {
	case "Lock", "RLock":
	case "Unlock", "RUnlock":
		isUnlock = true
	default:
		return "", false
	}
	muSel, ok := sel.X.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	muField, ok := c.pass.TypesInfo.Uses[muSel.Sel].(*types.Var)
	if !ok || !c.tracked[muField.Origin()] {
		return "", false
	}
	return exprString(muSel), isUnlock
}

// scanExpr checks guarded-field accesses and blocking calls inside one
// expression, including nested function literals (scanned with a fresh
// empty state — they run later, under unknown locks).
func (c *checker) scanExpr(state lockState, e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			c.scanBlock(make(lockState), n.Body.List)
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				c.reportBlocked(state, n.OpPos, "channel receive")
			}
		case *ast.CallExpr:
			c.checkBlockingCall(state, n)
			// Atomic accesses of guarded fields are sanctioned: skip the
			// &x.f argument subtree.
			if isAtomicCall(c.pass, n) {
				for _, a := range n.Args {
					if u, ok := ast.Unparen(a).(*ast.UnaryExpr); ok && u.Op == token.AND {
						continue
					}
					c.scanExpr(state, a)
				}
				c.scanExpr(state, n.Fun)
				return false
			}
		case *ast.SelectorExpr:
			c.checkAccess(state, n)
		}
		return true
	})
}

// checkAccess reports a guarded-field access without the guarding mutex held.
func (c *checker) checkAccess(state lockState, sel *ast.SelectorExpr) {
	field, ok := c.pass.TypesInfo.Uses[sel.Sel].(*types.Var)
	if !ok {
		return
	}
	// A field of a generic struct reached through an instance (including
	// the receiver's own type parameters) is a distinct object; its origin
	// is the annotated declaration.
	field = field.Origin()
	g, guarded := c.guards[field]
	if !guarded {
		return
	}
	if c.isFreshBase(sel.X) {
		return
	}
	need := exprString(sel.X) + "." + g.mutex
	if state[need] {
		return
	}
	c.pass.Reportf(sel.Sel.Pos(),
		"access to %s.%s in %s without holding %s (field is //soda:guard %s); lock it, use sync/atomic, or tag the function //soda:locked %s",
		exprString(sel.X), field.Name(), c.fname, need, g.mutex, g.mutex)
}

// markFresh records lhs as a freshly allocated object when rhs is a
// composite literal (or its address), new(T), or a call to new-like
// builtins. Fresh objects are exempt from lock checking: they are not yet
// visible to other goroutines.
func (c *checker) markFresh(lhs ast.Expr, rhs ast.Expr) {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok {
		return
	}
	obj := c.pass.TypesInfo.Defs[id]
	if obj == nil {
		obj = c.pass.TypesInfo.Uses[id]
	}
	if obj == nil {
		return
	}
	if isFreshExpr(rhs) {
		c.fresh[obj] = true
	} else {
		delete(c.fresh, obj) // reassignment kills freshness
	}
}

func isFreshExpr(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			_, ok := ast.Unparen(e.X).(*ast.CompositeLit)
			return ok
		}
	case *ast.CallExpr:
		if id, ok := e.Fun.(*ast.Ident); ok && id.Name == "new" {
			return true
		}
	}
	return false
}

// isFreshBase reports whether the access base is rooted at a fresh local.
func (c *checker) isFreshBase(e ast.Expr) bool {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			obj := c.pass.TypesInfo.Uses[x]
			if obj == nil {
				obj = c.pass.TypesInfo.Defs[x]
			}
			return obj != nil && c.fresh[obj]
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return false
		}
	}
}

// checkBlockingCall reports time.Sleep and blocking-package calls made while
// an annotated lock is held.
func (c *checker) checkBlockingCall(state lockState, call *ast.CallExpr) {
	if len(state) == 0 {
		return
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	obj := c.pass.TypesInfo.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil {
		return
	}
	// Only package-level functions: x.Read() on a local is method dispatch.
	if id, ok := sel.X.(*ast.Ident); !ok {
		return
	} else if _, isPkgName := c.pass.TypesInfo.Uses[id].(*types.PkgName); !isPkgName {
		return
	}
	pkgPath := obj.Pkg().Path()
	switch {
	case pkgPath == "time" && obj.Name() == "Sleep":
		c.reportBlocked(state, call.Pos(), "time.Sleep")
	case blockingPackages[pkgPath]:
		c.reportBlocked(state, call.Pos(), fmt.Sprintf("call into package %s", pkgPath))
	}
}

// reportBlocked names one held lock in the finding (deterministically: the
// lexicographically first key).
func (c *checker) reportBlocked(state lockState, pos token.Pos, what string) {
	if len(state) == 0 {
		return
	}
	first := ""
	for k := range state {
		if first == "" || k < first {
			first = k
		}
	}
	c.pass.Reportf(pos,
		"%s while holding %s in %s: an annotated lock must not be held across blocking operations",
		what, first, c.fname)
}

// isAtomicCall reports whether the call is a sync/atomic package function.
func isAtomicCall(pass *lint.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj := pass.TypesInfo.Uses[sel.Sel]
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic"
}

// exprString renders the canonical spelling of a lock-base expression:
// identifiers, selectors, indexes and derefs, anything else as a stable
// placeholder.
func exprString(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprString(e.X) + "[" + exprString(e.Index) + "]"
	case *ast.StarExpr:
		return "*" + exprString(e.X)
	case *ast.BasicLit:
		return e.Value
	case *ast.CallExpr:
		return exprString(e.Fun) + "()"
	default:
		return "?"
	}
}
