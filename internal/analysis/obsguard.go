package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Obsguard enforces the observability layer's nil contract: an obs.Tracer
// is optional — a nil tracer means "tracing off" — and an *obs.Registry
// handed to a constructor may be nil until the constructor's default
// (`if r == nil { r = obs.NewRegistry() }`) replaces it, so every call
// through one must be dominated by a nil check or that default. The hot
// simulation loop relies on this (the guard is the zero-cost path); an
// unguarded call is a latent panic that only fires in the untraced
// configuration, which is exactly the configuration the tests exercise
// least.
//
// The analyzer runs a forward walk over each function body carrying a set of
// receiver chains ("s.tracer", "reg") currently known non-nil. Knowledge is
// gained from `x != nil` guards, early returns after `x == nil`, assignment
// of obviously non-nil values (composite literals, obs.New* constructors),
// and copies of known-safe chains; it is lost on reassignment and never
// flows out of loops or into goroutines.
//
// The analyzer also enforces the span lifecycle of the request-tracing layer
// (internal/obs/span): a *span.Span obtained from Start/StartRoot/StartLinked/
// StartRemote must reach End on every return path of the function that owns
// it — in practice via defer, since End(err) is nil-safe and the deferred
// closure observes the named error. A span that is never ended keeps its
// whole trace open forever (the flight recorder never retains it); an End
// with a return statement before it silently leaks the trace on the early
// path. Ownership transfers when the span escapes — returned, stored in a
// struct, passed to a call — and spans borrowed via FromContext are never
// owned. The span rule additionally covers internal/dist, internal/serve,
// and internal/jobs — the cross-process and async-execution hops.
//
// internal/obs and internal/obs/span themselves are exempt (methods
// legitimately run on the receiver), as is internal/serve for the nil rule,
// which resolves a non-nil registry at construction time and treats it as
// mandatory thereafter.
var Obsguard = &Analyzer{
	Name: "obsguard",
	Doc: "calls through obs.Tracer / obs.Registry values must be dominated " +
		"by a nil check (nil means \"observability off\"), and every owned " +
		"*span.Span must be ended on all return paths (use defer)",
	Run: runObsguard,
}

func runObsguard(pass *Pass) error {
	path := pass.Pkg.Path()
	if pathHasSuffix(path, "internal/obs") || pathHasSuffix(path, "internal/obs/span") {
		return nil
	}
	nilScope := false
	for _, suffix := range []string{"internal/sim", "internal/grid", "internal/experiment"} {
		if pathHasSuffix(path, suffix) {
			nilScope = true
		}
	}
	spanScope := nilScope
	for _, suffix := range []string{"internal/dist", "internal/serve", "internal/jobs"} {
		if pathHasSuffix(path, suffix) {
			spanScope = true
		}
	}
	if !nilScope && !spanScope {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if nilScope {
				guardWalk(pass, fn.Body.List, map[string]bool{})
			}
			if spanScope {
				checkSpanBodies(pass, fn.Body)
			}
		}
	}
	return nil
}

// guardWalk processes a statement list in order, tracking which receiver
// chains are known non-nil. safe is mutated: facts established by guards in
// this list persist for the statements that follow.
func guardWalk(pass *Pass, stmts []ast.Stmt, safe map[string]bool) {
	for _, stmt := range stmts {
		guardStmt(pass, stmt, safe)
	}
}

func guardStmt(pass *Pass, stmt ast.Stmt, safe map[string]bool) {
	switch s := stmt.(type) {
	case *ast.IfStmt:
		guardIf(pass, s, safe)
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			checkGuardedCalls(pass, rhs, safe)
		}
		applyAssign(pass, s, safe)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for i, name := range vs.Names {
						if i < len(vs.Values) {
							checkGuardedCalls(pass, vs.Values[i], safe)
							if rhsNonNil(pass, vs.Values[i], safe) {
								safe[name.Name] = true
							}
						}
					}
				}
			}
		}
	case *ast.BlockStmt:
		guardWalk(pass, s.List, safe)
	case *ast.ForStmt:
		// Facts gathered inside a loop must not leak out (the guard may not
		// dominate the next iteration's uses), so the body gets a copy.
		if s.Init != nil {
			guardStmt(pass, s.Init, safe)
		}
		checkGuardedCalls(pass, s.Cond, safe)
		inner := cloneSafe(safe)
		if s.Post != nil {
			guardStmt(pass, s.Post, inner)
		}
		guardWalk(pass, s.Body.List, inner)
	case *ast.RangeStmt:
		checkGuardedCalls(pass, s.X, safe)
		guardWalk(pass, s.Body.List, cloneSafe(safe))
	case *ast.SwitchStmt:
		if s.Init != nil {
			guardStmt(pass, s.Init, safe)
		}
		checkGuardedCalls(pass, s.Tag, safe)
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CaseClause); ok {
				inner := cloneSafe(safe)
				for _, e := range cc.List {
					checkGuardedCalls(pass, e, inner)
				}
				guardWalk(pass, cc.Body, inner)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CaseClause); ok {
				guardWalk(pass, cc.Body, cloneSafe(safe))
			}
		}
	case *ast.SelectStmt:
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CommClause); ok {
				guardWalk(pass, cc.Body, cloneSafe(safe))
			}
		}
	case *ast.GoStmt:
		// The goroutine runs later; a guard observed now may no longer hold,
		// but the receiver chains it closes over were checked at capture time
		// in this repository's idiom, so inherit a copy of the current facts.
		checkGuardedCalls(pass, s.Call, cloneSafe(safe))
	case *ast.DeferStmt:
		checkGuardedCalls(pass, s.Call, cloneSafe(safe))
	case *ast.ExprStmt:
		checkGuardedCalls(pass, s.X, safe)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			checkGuardedCalls(pass, r, safe)
		}
	case *ast.SendStmt:
		checkGuardedCalls(pass, s.Chan, safe)
		checkGuardedCalls(pass, s.Value, safe)
	case *ast.IncDecStmt:
		checkGuardedCalls(pass, s.X, safe)
	case *ast.LabeledStmt:
		guardStmt(pass, s.Stmt, safe)
	}
}

// guardIf threads nil-check facts through an if statement: the then branch
// sees the condition's positive facts, the else branch its negative facts,
// and the code after the if keeps whatever the control flow proves.
func guardIf(pass *Pass, s *ast.IfStmt, safe map[string]bool) {
	if s.Init != nil {
		guardStmt(pass, s.Init, safe)
	}
	checkGuardedCalls(pass, s.Cond, safe)
	nonNilThen, nonNilElse := condNilFacts(s.Cond)

	thenSafe := cloneSafe(safe)
	for _, p := range nonNilThen {
		thenSafe[p] = true
	}
	guardWalk(pass, s.Body.List, thenSafe)

	if s.Else != nil {
		elseSafe := cloneSafe(safe)
		for _, p := range nonNilElse {
			elseSafe[p] = true
		}
		guardStmt(pass, s.Else, elseSafe)
	}

	// Post-if facts. `if x == nil { return }` proves x for the rest of the
	// list; so does `if x == nil { x = <non-nil> }`.
	if terminates(s.Body.List) {
		for _, p := range nonNilElse {
			safe[p] = true
		}
	} else {
		for _, p := range nonNilElse {
			if assignsNonNil(pass, s.Body, p, safe) {
				safe[p] = true
			}
		}
	}
	if s.Else != nil {
		if eb, ok := s.Else.(*ast.BlockStmt); ok && terminates(eb.List) {
			for _, p := range nonNilThen {
				safe[p] = true
			}
		}
	}
}

// condNilFacts extracts the receiver chains a condition proves non-nil in
// the then branch and in the else branch.
func condNilFacts(cond ast.Expr) (nonNilThen, nonNilElse []string) {
	switch e := ast.Unparen(cond).(type) {
	case *ast.BinaryExpr:
		switch e.Op.String() {
		case "!=":
			if p, ok := nilComparand(e); ok {
				return []string{p}, nil
			}
		case "==":
			if p, ok := nilComparand(e); ok {
				return nil, []string{p}
			}
		case "&&":
			lt, _ := condNilFacts(e.X)
			rt, _ := condNilFacts(e.Y)
			return append(lt, rt...), nil
		case "||":
			_, le := condNilFacts(e.X)
			_, re := condNilFacts(e.Y)
			return nil, append(le, re...)
		}
	}
	return nil, nil
}

// nilComparand returns the non-nil side's receiver chain of an (in)equality
// against the nil identifier.
func nilComparand(e *ast.BinaryExpr) (string, bool) {
	if isNilIdent(e.Y) {
		if p := exprPath(e.X); p != "" {
			return p, true
		}
	}
	if isNilIdent(e.X) {
		if p := exprPath(e.Y); p != "" {
			return p, true
		}
	}
	return "", false
}

func isNilIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

// applyAssign updates the safe set for an assignment: copying a safe chain
// or storing an obviously non-nil value makes the target safe; anything else
// invalidates it (and everything rooted under it).
func applyAssign(pass *Pass, s *ast.AssignStmt, safe map[string]bool) {
	for i, lhs := range s.Lhs {
		p := exprPath(lhs)
		if p == "" {
			continue
		}
		invalidatePrefix(safe, p)
		if len(s.Rhs) == len(s.Lhs) && rhsNonNil(pass, s.Rhs[i], safe) {
			safe[p] = true
		}
	}
}

// invalidatePrefix drops p and every chain rooted at it ("s.tracer" also
// kills "s.tracer.x") from the safe set.
func invalidatePrefix(safe map[string]bool, p string) {
	delete(safe, p)
	for k := range safe {
		if len(k) > len(p) && k[:len(p)] == p && k[len(p)] == '.' {
			delete(safe, k)
		}
	}
}

// rhsNonNil reports whether an assigned value is known non-nil: a composite
// literal (or its address), a copy of a safe chain, or an obs constructor.
func rhsNonNil(pass *Pass, rhs ast.Expr, safe map[string]bool) bool {
	switch e := ast.Unparen(rhs).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if e.Op.String() == "&" {
			_, ok := ast.Unparen(e.X).(*ast.CompositeLit)
			return ok
		}
	case *ast.CallExpr:
		// obs.NewRegistry() and friends never return nil.
		if sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr); ok {
			if x, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
				if pkg, isPkg := pass.Info.Uses[x].(*types.PkgName); isPkg &&
					pathHasSuffix(pkg.Imported().Path(), "internal/obs") &&
					len(sel.Sel.Name) > 3 && sel.Sel.Name[:3] == "New" {
					return true
				}
			}
		}
	default:
		if p := exprPath(rhs); p != "" && safe[p] {
			return true
		}
	}
	return false
}

// assignsNonNil reports whether the block assigns a non-nil value to chain p.
func assignsNonNil(pass *Pass, body *ast.BlockStmt, p string, safe map[string]bool) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || found {
			return true
		}
		for i, lhs := range as.Lhs {
			if exprPath(lhs) == p && len(as.Rhs) == len(as.Lhs) && rhsNonNil(pass, as.Rhs[i], safe) {
				found = true
			}
		}
		return true
	})
	return found
}

// checkGuardedCalls reports every method call whose receiver is an
// obs.Tracer or obs.Registry chain not currently known non-nil. Function
// literals encountered inside the expression are walked as statement lists
// with a copy of the current facts.
func checkGuardedCalls(pass *Pass, e ast.Expr, safe map[string]bool) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			guardWalk(pass, n.Body.List, cloneSafe(safe))
			return false
		case *ast.CallExpr:
			sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			recvType := pass.Info.TypeOf(sel.X)
			if recvType == nil {
				return true
			}
			name, fromObs := namedFromObsPackage(recvType)
			if !fromObs || (name != "Tracer" && name != "Registry") {
				return true
			}
			p := exprPath(sel.X)
			if p == "" || !safe[p] {
				loc := p
				if loc == "" {
					loc = "receiver"
				}
				pass.Reportf(n.Pos(), "call to (%s).%s on obs.%s %s without a dominating nil check; nil means observability is off",
					recvType.String(), sel.Sel.Name, name, loc)
			}
		}
		return true
	})
}

func cloneSafe(safe map[string]bool) map[string]bool {
	out := make(map[string]bool, len(safe))
	for k, v := range safe {
		out[k] = v
	}
	return out
}

// checkSpanBodies runs the span-lifecycle rule over a function body and over
// every function literal nested in it. Each literal is its own body: a span
// started inside a closure must be ended by that closure (or escape it) —
// the enclosing function's defers are no help to a goroutine.
func checkSpanBodies(pass *Pass, body *ast.BlockStmt) {
	checkSpanEnds(pass, body)
	ast.Inspect(body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			checkSpanEnds(pass, fl.Body)
		}
		return true
	})
}

// spanVar tracks one owned *span.Span local from its assignment to its End.
type spanVar struct {
	pos      token.Pos // the assignment that created it
	deferred bool      // an End reached through a defer in this body
	firstEnd token.Pos // earliest non-deferred <var>.End call
	escaped  bool      // ownership left this body (returned, stored, passed)
}

// spanScan is one body's walk state for the span-End rule.
type spanScan struct {
	pass    *Pass
	vars    map[string]*spanVar
	order   []string            // report in assignment order
	benign  map[*ast.Ident]bool // idents that are not ownership transfers
	returns []token.Pos         // this body's return statements
}

// checkSpanEnds flags spans assigned in this body that can finish the
// function without their End running: never ended at all, or ended by a
// plain call that an earlier return can skip. A deferred End (directly or
// inside a deferred closure) always satisfies the rule; so does handing the
// span off to someone else.
func checkSpanEnds(pass *Pass, body *ast.BlockStmt) {
	sc := &spanScan{pass: pass, vars: map[string]*spanVar{}, benign: map[*ast.Ident]bool{}}
	sc.walk(body, false)
	for _, name := range sc.order {
		v := sc.vars[name]
		if v.escaped || v.deferred {
			continue
		}
		if v.firstEnd == token.NoPos {
			pass.Reportf(v.pos, "span %q is never ended; its trace stays open forever — defer %s.End(err) right after Start",
				name, name)
			continue
		}
		for _, r := range sc.returns {
			if r > v.pos && r < v.firstEnd {
				pass.Reportf(v.pos, "span %q End is not guaranteed on all return paths (a return precedes the End call); use defer",
					name)
				break
			}
		}
	}
}

// walk visits the body in syntactic order. inDefer marks that we are inside
// a defer statement's call (including a deferred closure's body), where an
// End counts as guaranteed and a return does not leave the function.
func (sc *spanScan) walk(n ast.Node, inDefer bool) {
	if n == nil {
		return
	}
	switch n := n.(type) {
	case *ast.FuncLit:
		// A non-deferred literal is its own body (checkSpanBodies analyzes
		// it separately); a deferred one runs as part of this body's exit.
		if inDefer {
			sc.walkChildren(n.Body, true)
		}
		return
	case *ast.DeferStmt:
		sc.walk(n.Call, true)
		return
	case *ast.ReturnStmt:
		if !inDefer {
			sc.returns = append(sc.returns, n.Pos())
		}
	case *ast.AssignStmt:
		sc.assign(n, inDefer)
	case *ast.CallExpr:
		if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
			if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
				sc.benign[id] = true // a method call is use, not transfer
				if v := sc.vars[id.Name]; v != nil && sel.Sel.Name == "End" && sc.spanIdent(id) {
					if inDefer {
						v.deferred = true
					} else if v.firstEnd == token.NoPos {
						v.firstEnd = n.Pos()
					}
				}
			}
		}
	case *ast.BinaryExpr:
		if op := n.Op.String(); op == "==" || op == "!=" {
			if isNilIdent(n.Y) {
				if id, ok := ast.Unparen(n.X).(*ast.Ident); ok {
					sc.benign[id] = true
				}
			}
			if isNilIdent(n.X) {
				if id, ok := ast.Unparen(n.Y).(*ast.Ident); ok {
					sc.benign[id] = true
				}
			}
		}
	case *ast.Ident:
		// Any remaining span-typed use is an ownership transfer: returned,
		// stored in a struct or map, passed as an argument, captured in a
		// composite literal. The new owner is responsible for End.
		if !sc.benign[n] && sc.spanIdent(n) {
			if v := sc.vars[n.Name]; v != nil {
				v.escaped = true
			}
		}
		return
	}
	sc.walkChildren(n, inDefer)
}

// walkChildren recurses into n's immediate children, leaving descent control
// to walk (which prunes function literals and defer subtrees).
func (sc *spanScan) walkChildren(n ast.Node, inDefer bool) {
	ast.Inspect(n, func(c ast.Node) bool {
		if c == n {
			return true
		}
		sc.walk(c, inDefer)
		return false
	})
}

// assign registers span-typed variables created by call results and flags
// spans discarded into the blank identifier (a span nobody can End).
func (sc *spanScan) assign(a *ast.AssignStmt, inDefer bool) {
	for i, lhs := range a.Lhs {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			continue
		}
		sc.benign[id] = true // assignment targets are not uses
		if inDefer {
			continue
		}
		rhs := assignRHS(a, i)
		if _, isCall := ast.Unparen(rhs).(*ast.CallExpr); !isCall {
			continue // aliases and zero values create no new obligation
		}
		if t := assignType(sc.pass, a, i); t == nil || !isSpanPtr(t) {
			continue
		}
		if calleeIsFromContext(rhs) {
			continue // borrowed from the context, owned elsewhere
		}
		if id.Name == "_" {
			sc.pass.Reportf(id.Pos(), "span result discarded into _; it is never ended and its trace stays open — assign it and defer End")
			continue
		}
		if sc.vars[id.Name] == nil {
			sc.order = append(sc.order, id.Name)
		}
		sc.vars[id.Name] = &spanVar{pos: id.Pos()}
	}
}

// assignRHS returns the expression assigned into position i.
func assignRHS(a *ast.AssignStmt, i int) ast.Expr {
	if len(a.Rhs) == len(a.Lhs) {
		return a.Rhs[i]
	}
	return a.Rhs[0]
}

// assignType resolves the type landing in position i, including positions of
// a multi-value call (where the blank identifier has no object to ask).
func assignType(pass *Pass, a *ast.AssignStmt, i int) types.Type {
	if len(a.Rhs) == len(a.Lhs) {
		return pass.Info.TypeOf(a.Rhs[i])
	}
	if tup, ok := pass.Info.TypeOf(a.Rhs[0]).(*types.Tuple); ok && i < tup.Len() {
		return tup.At(i).Type()
	}
	return nil
}

// calleeIsFromContext reports whether rhs calls span.FromContext.
func calleeIsFromContext(rhs ast.Expr) bool {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		return fun.Sel.Name == "FromContext"
	case *ast.Ident:
		return fun.Name == "FromContext"
	}
	return false
}

// spanIdent reports whether id resolves to a variable of type *span.Span.
func (sc *spanScan) spanIdent(id *ast.Ident) bool {
	obj := sc.pass.Info.Uses[id]
	if obj == nil {
		obj = sc.pass.Info.Defs[id]
	}
	v, ok := obj.(*types.Var)
	return ok && isSpanPtr(v.Type())
}

// isSpanPtr reports whether t is *Span from the request-tracing layer
// (a package whose import path ends in internal/obs/span).
func isSpanPtr(t types.Type) bool {
	ptr, ok := types.Unalias(t).(*types.Pointer)
	if !ok {
		return false
	}
	n, ok := types.Unalias(ptr.Elem()).(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Name() == "Span" && pathHasSuffix(n.Obj().Pkg().Path(), "internal/obs/span")
}
