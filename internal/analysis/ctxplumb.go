package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// CtxPlumb enforces the PR-1 cancellation contract: every ...Context
// API plumbs its context all the way down, and library code never
// manufactures a fresh root context mid-chain. Two rules, applied to
// library packages only (package main — the CLIs and examples — owns
// its root context legitimately), skipping test files:
//
//   - No context.Background()/context.TODO() in library code. The
//     sanctioned shapes are the compatibility shims: a function with
//     no ctx parameter handing Background straight to its ...Context
//     sibling (e.g. relation.Build → BuildContext(context.Background(),
//     ...)) or to a method on an Engine value (e.g. internal/bench's
//     core.NewEngine(opts).Discover(context.Background(), ...)) —
//     engine methods take ctx as their first parameter by convention,
//     so they are the ...Context variants of the engine API. A
//     function that already receives a ctx and still calls Background
//     has silently detached from the cancellation chain. A function
//     that receives an *http.Request is held to the same rule: the
//     request carries the client's context (r.Context()), so HTTP
//     handlers never need a fresh root either.
//
//   - No dropped ctx parameters: a function that declares a
//     context.Context parameter must use it (and must not name it
//     "_"). An ignored ctx is how a ...Context variant quietly stops
//     being cancellable.
//
// Suppress a justified exception with `//lint:ctxplumb <reason>`.
var CtxPlumb = &Analyzer{
	Name:      "ctxplumb",
	Directive: "ctxplumb",
	Doc:       "flag fresh root contexts and ignored ctx parameters in library packages",
	Run:       runCtxPlumb,
}

func runCtxPlumb(pass *Pass) {
	if pass.Pkg.Name() == "main" {
		return
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		inspectStack(f, func(stack []ast.Node, n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				pass.checkRootContext(stack, n)
			case *ast.FuncDecl:
				if n.Body != nil {
					pass.checkDroppedCtx(n.Type, n.Body)
				}
			case *ast.FuncLit:
				pass.checkDroppedCtx(n.Type, n.Body)
			}
			return true
		})
	}
}

// checkRootContext flags context.Background()/context.TODO() calls
// except in the sanctioned compatibility-shim shape.
func (p *Pass) checkRootContext(stack []ast.Node, call *ast.CallExpr) {
	name, ok := p.contextRootCall(call)
	if !ok {
		return
	}
	fn := enclosingFunc(stack)
	if fn != nil && p.funcHasCtxParam(fn) {
		p.Reportf(call.Pos(), "context.%s() in a function that already receives a context: pass the caller's ctx down instead of detaching from the cancellation chain", name)
		return
	}
	if fn != nil && p.funcHasRequestParam(fn) {
		p.Reportf(call.Pos(), "context.%s() in a function that receives an *http.Request: the request already carries the client's context — pass its Context() down so a disconnect cancels the work", name)
		return
	}
	// Shim shape: the fresh root is handed straight to a ...Context
	// sibling — or to an Engine method, the cancellable engine API —
	// by a context-less wrapper.
	if len(stack) > 0 {
		if outer, ok := stack[len(stack)-1].(*ast.CallExpr); ok && (calleeEndsWithContext(outer) || p.calleeIsEngineMethod(outer)) {
			for _, arg := range outer.Args {
				if arg == ast.Expr(call) {
					return
				}
			}
		}
	}
	p.Reportf(call.Pos(), "context.%s() in library code outside a ...Context compatibility shim: accept a ctx or call the ...Context variant", name)
}

// contextRootCall reports whether call is context.Background() or
// context.TODO(), returning which.
func (p *Pass) contextRootCall(call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Background" && sel.Sel.Name != "TODO") {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	pkg, ok := p.Info.Uses[id].(*types.PkgName)
	if !ok || pkg.Imported().Path() != "context" {
		return "", false
	}
	return sel.Sel.Name, true
}

// calleeEndsWithContext reports whether the called function's name
// ends in "Context" — the naming convention for cancellable variants.
func calleeEndsWithContext(call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return strings.HasSuffix(fun.Name, "Context")
	case *ast.SelectorExpr:
		return strings.HasSuffix(fun.Sel.Name, "Context")
	}
	return false
}

// calleeIsEngineMethod reports whether the called function is a method
// on a type named Engine. Engine methods take ctx as their first
// parameter (they are the engine API's ...Context variants), so a
// context-less wrapper handing Background straight to one is the same
// sanctioned shim shape as a ...Context sibling call.
func (p *Pass) calleeIsEngineMethod(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	selection, ok := p.Info.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return false
	}
	recv := selection.Recv()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	return ok && named.Obj().Name() == "Engine"
}

// funcHasCtxParam reports whether the function declares a
// context.Context parameter.
func (p *Pass) funcHasCtxParam(fn ast.Node) bool {
	var ftype *ast.FuncType
	switch fn := fn.(type) {
	case *ast.FuncDecl:
		ftype = fn.Type
	case *ast.FuncLit:
		ftype = fn.Type
	default:
		return false
	}
	if ftype.Params == nil {
		return false
	}
	for _, field := range ftype.Params.List {
		if t := p.Info.TypeOf(field.Type); t != nil && isContextType(t) {
			return true
		}
	}
	return false
}

// funcHasRequestParam reports whether the function declares a
// *net/http.Request parameter. HTTP handlers already hold a context —
// the request's, which dies with the client connection — so a fresh
// root inside one detaches the work from its client exactly like an
// ignored ctx parameter would.
func (p *Pass) funcHasRequestParam(fn ast.Node) bool {
	var ftype *ast.FuncType
	switch fn := fn.(type) {
	case *ast.FuncDecl:
		ftype = fn.Type
	case *ast.FuncLit:
		ftype = fn.Type
	default:
		return false
	}
	if ftype.Params == nil {
		return false
	}
	for _, field := range ftype.Params.List {
		t := p.Info.TypeOf(field.Type)
		ptr, ok := t.(*types.Pointer)
		if ok && isNamed(ptr.Elem(), "net/http", "Request") {
			return true
		}
	}
	return false
}

// checkDroppedCtx flags context.Context parameters that the function
// body never uses (or that are declared blank).
func (p *Pass) checkDroppedCtx(ftype *ast.FuncType, body *ast.BlockStmt) {
	if ftype.Params == nil || body == nil || len(body.List) == 0 {
		return
	}
	for _, field := range ftype.Params.List {
		t := p.Info.TypeOf(field.Type)
		if t == nil || !isContextType(t) {
			continue
		}
		for _, name := range field.Names {
			if name.Name == "_" {
				p.Reportf(name.Pos(), "context parameter dropped (named _): name it and plumb it down so the ...Context chain stays cancellable")
				continue
			}
			obj := p.Info.Defs[name]
			if obj == nil {
				continue
			}
			if !usesObject(p, body, obj) {
				p.Reportf(name.Pos(), "context parameter %s is never used: the function silently detaches from the cancellation chain", name.Name)
			}
		}
	}
}

func isContextType(t types.Type) bool {
	return isNamed(t, "context", "Context")
}

// usesObject reports whether any identifier in body resolves to obj.
func usesObject(p *Pass, body *ast.BlockStmt, obj types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && p.Info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}
