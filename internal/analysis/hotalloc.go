package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// NewHotAlloc builds the hotalloc analyzer.
//
// A function whose doc comment contains a line `//earmac:hotpath` is a
// hot-path root: it, and every same-package function it statically
// calls (transitively, through plain calls and method calls resolved at
// compile time), must be allocation-free in steady state. Inside that
// closure the analyzer flags the allocation-prone constructs:
//
//   - any call into package fmt (Sprintf and friends allocate their
//     result and box every operand);
//   - make, new, slice/map composite literals, and &T{} literals;
//   - func literals (a closure allocates when it captures);
//   - explicit conversions to interface types (boxing);
//   - append to an unsized slice: one declared `var s []T`, `s := []T{}`,
//     or `s := make([]T, 0)` in the same function, or appended onto a
//     composite literal — growth that a capacity hint would avoid.
//     Appends onto caller-provided buffers (the module's buffer-reuse
//     contract) and onto struct fields are not flagged: their capacity
//     is amortized by the owner.
//
// Constructs inside a panic(...) argument are never flagged — the
// program is dying and the message allocation is irrelevant. Everything
// else is waived case by case with `//earmac:alloc -- reason` on the
// flagged line or alone on the line above; the reason clause is
// mandatory. Function literals are flagged but not entered: a closure's
// body is only hot if it is called on the hot path, and resolving that
// statically would mostly produce noise.
//
// The closure is intra-package: calls that cross a package boundary are
// the callee package's responsibility (annotate its entry points). This
// matches how the buffer-reuse contracts are layered — each package
// documents and enforces its own steady-state guarantee.
func NewHotAlloc() *Analyzer {
	a := &Analyzer{
		Name: "hotalloc",
		Doc:  "forbid allocation-prone constructs on //earmac:hotpath call graphs",
	}
	a.Run = runHotAlloc
	return a
}

func runHotAlloc(pass *Pass) error {
	// Collect every function declaration and the hot-path roots.
	decls := make(map[*types.Func]*ast.FuncDecl)
	var roots []*types.Func
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			decls[fn] = fd
			if hasHotpathDirective(fd) {
				roots = append(roots, fn)
			}
		}
	}
	if len(roots) == 0 {
		return nil
	}
	pass.CheckDirectiveGrammar("alloc")

	// Transitive same-package closure over static calls.
	hot := make(map[*types.Func]bool)
	var visit func(fn *types.Func)
	visit = func(fn *types.Func) {
		if hot[fn] {
			return
		}
		hot[fn] = true
		fd := decls[fn]
		if fd == nil || fd.Body == nil {
			return
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			var callee types.Object
			switch fun := call.Fun.(type) {
			case *ast.Ident:
				callee = pass.TypesInfo.Uses[fun]
			case *ast.SelectorExpr:
				callee = pass.TypesInfo.Uses[fun.Sel]
			}
			if cf, ok := callee.(*types.Func); ok && cf.Pkg() == pass.Pkg {
				// A call to a generic function or method resolves to
				// an instantiation; its declaration is the origin's.
				cf = cf.Origin()
				if _, local := decls[cf]; local {
					visit(cf)
				}
			}
			return true
		})
	}
	for _, r := range roots {
		visit(r)
	}

	// Deterministic order: check hot functions by source position.
	ordered := make([]*types.Func, 0, len(hot))
	for fn := range hot {
		ordered = append(ordered, fn)
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Pos() < ordered[j].Pos() })
	for _, fn := range ordered {
		if fd := decls[fn]; fd != nil && fd.Body != nil {
			checkHotBody(pass, fn, fd)
		}
	}
	return nil
}

// hasHotpathDirective reports whether the declaration's doc comment
// contains a bare //earmac:hotpath line.
func hasHotpathDirective(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if m := directiveRe.FindStringSubmatch(c.Text); m != nil && m[1] == "hotpath" {
			return true
		}
	}
	return false
}

// checkHotBody walks one hot function's body flagging allocation-prone
// constructs. It tracks panic-argument context and does not descend
// into nested function literals (they are flagged, not entered).
func checkHotBody(pass *Pass, fn *types.Func, fd *ast.FuncDecl) {
	unsized := unsizedLocals(pass, fd)
	var walk func(n ast.Node, inPanic bool)
	walk = func(n ast.Node, inPanic bool) {
		if n == nil {
			return
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			if !inPanic && !pass.Waived(n, "alloc") {
				pass.Reportf(n.Pos(), "%s: func literal allocates a closure on a hot path", fn.Name())
			}
			return // not entered; see NewHotAlloc
		case *ast.CompositeLit:
			if !inPanic {
				checkHotComposite(pass, fn, n)
			}
		case *ast.UnaryExpr:
			// &T{} escapes to the heap in practice.
			if _, ok := n.X.(*ast.CompositeLit); ok && n.Op == token.AND && !inPanic {
				if !pass.Waived(n, "alloc") {
					pass.Reportf(n.Pos(), "%s: &composite literal allocates on a hot path", fn.Name())
				}
			}
		case *ast.CallExpr:
			childPanic := inPanic
			if id, ok := n.Fun.(*ast.Ident); ok {
				if b, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
					switch b.Name() {
					case "panic":
						childPanic = true
					case "make", "new":
						if !inPanic && !pass.Waived(n, "alloc") {
							pass.Reportf(n.Pos(), "%s: %s allocates on a hot path", fn.Name(), b.Name())
						}
					case "append":
						if !inPanic {
							checkHotAppend(pass, fn, n, unsized)
						}
					}
				}
			}
			if !inPanic {
				checkHotCallTarget(pass, fn, n)
			}
			for _, arg := range n.Args {
				walk(arg, childPanic)
			}
			walk(n.Fun, childPanic)
			return
		}
		// Generic descent for every other node kind.
		children(n, func(c ast.Node) { walk(c, inPanic) })
	}
	walk(fd.Body, false)
}

// children invokes f on each direct child of n. ast.Inspect with a
// depth guard emulates direct-children iteration without enumerating
// every node type.
func children(n ast.Node, f func(ast.Node)) {
	first := true
	ast.Inspect(n, func(c ast.Node) bool {
		if first {
			first = false
			return true
		}
		if c == nil {
			return false
		}
		f(c)
		return false
	})
}

// checkHotCallTarget flags calls into fmt and explicit conversions to
// interface types.
func checkHotCallTarget(pass *Pass, fn *types.Func, call *ast.CallExpr) {
	// Conversion to an interface type boxes its operand.
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		if _, isIface := tv.Type.Underlying().(*types.Interface); isIface && !pass.Waived(call, "alloc") {
			pass.Reportf(call.Pos(), "%s: conversion to interface type boxes its operand on a hot path", fn.Name())
		}
		return
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	callee, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || callee.Pkg() == nil {
		return
	}
	if callee.Pkg().Path() == "fmt" && !pass.Waived(call, "alloc") {
		pass.Reportf(call.Pos(), "%s: fmt.%s allocates on a hot path", fn.Name(), callee.Name())
	}
}

// checkHotComposite flags map and slice composite literals.
func checkHotComposite(pass *Pass, fn *types.Func, lit *ast.CompositeLit) {
	tv := pass.TypesInfo.TypeOf(lit)
	if tv == nil {
		return
	}
	switch tv.Underlying().(type) {
	case *types.Map:
		if !pass.Waived(lit, "alloc") {
			pass.Reportf(lit.Pos(), "%s: map literal allocates on a hot path", fn.Name())
		}
	case *types.Slice:
		if !pass.Waived(lit, "alloc") {
			pass.Reportf(lit.Pos(), "%s: slice literal allocates on a hot path", fn.Name())
		}
	}
}

// unsizedLocals collects the local slice variables of fd that are
// declared without capacity: `var s []T`, `s := []T{}` (empty), or
// `s := make([]T, 0)` with no capacity argument. Appending to these
// grows from zero — the "unsized append growth" hotalloc flags.
func unsizedLocals(pass *Pass, fd *ast.FuncDecl) map[types.Object]bool {
	out := make(map[types.Object]bool)
	mark := func(id *ast.Ident) {
		if obj := pass.TypesInfo.Defs[id]; obj != nil {
			if _, isSlice := obj.Type().Underlying().(*types.Slice); isSlice {
				out[obj] = true
			}
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ValueSpec: // var s []T
			if len(n.Values) == 0 {
				for _, id := range n.Names {
					mark(id)
				}
			}
		case *ast.AssignStmt: // s := []T{} / s := make([]T, 0)
			if n.Tok != token.DEFINE || len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				if isUnsizedSliceExpr(pass, n.Rhs[i]) {
					mark(id)
				}
			}
		}
		return true
	})
	return out
}

// isUnsizedSliceExpr reports whether e is an empty slice literal or a
// capacity-free make of length zero.
func isUnsizedSliceExpr(pass *Pass, e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.CompositeLit:
		if _, isSlice := pass.TypesInfo.TypeOf(e).Underlying().(*types.Slice); isSlice {
			return len(e.Elts) == 0
		}
	case *ast.CallExpr:
		id, ok := e.Fun.(*ast.Ident)
		if !ok {
			return false
		}
		if b, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); !isBuiltin || b.Name() != "make" {
			return false
		}
		if len(e.Args) != 2 {
			return false // make with an explicit capacity is sized
		}
		if tv, ok := pass.TypesInfo.Types[e.Args[1]]; ok && tv.Value != nil && tv.Value.String() == "0" {
			return true
		}
	}
	return false
}

// checkHotAppend flags appends whose destination is an unsized local
// slice or a composite literal.
func checkHotAppend(pass *Pass, fn *types.Func, call *ast.CallExpr, unsized map[types.Object]bool) {
	if len(call.Args) == 0 {
		return
	}
	switch dst := call.Args[0].(type) {
	case *ast.Ident:
		if obj := pass.TypesInfo.Uses[dst]; obj != nil && unsized[obj] {
			if !pass.Waived(call, "alloc") {
				pass.Reportf(call.Pos(),
					"%s: append to unsized slice %s grows from zero capacity on a hot path", fn.Name(), dst.Name)
			}
		}
	case *ast.CompositeLit:
		if !pass.Waived(call, "alloc") {
			pass.Reportf(call.Pos(), "%s: append to a slice literal allocates on a hot path", fn.Name())
		}
	}
}
