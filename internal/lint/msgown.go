package lint

// msgown enforces the coherence machine's message-ownership rule.
// Machine.Send copies a message into a record the machine owns and
// recycles after the record's last dispatch, so the *coherent.Msg a
// handler receives is valid only during the call. An engine keeps what
// it needs by value (a coherent.Msg copy or its fields) and defers a
// message only through Machine.DeferToTxn, which copies it. In every
// package laneguard gates (one that declares an engine), msgown reports
// each way a *coherent.Msg can outlive the call:
//
//	M1  a declared type with a field or element of type *coherent.Msg
//	    (a func type's parameters and results are not storage);
//	M2  a func literal that refers to a *coherent.Msg variable declared
//	    outside it: the closure may run after the handler returned;
//	M3  a *coherent.Msg stored anywhere but a local variable: into a
//	    field, an element, a map, a package variable or through a
//	    pointer, as a composite-literal element, as an append argument,
//	    or sent on a channel.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MsgOwn is the message-ownership analyzer.
var MsgOwn = &Analyzer{
	Name: "msgown",
	Doc:  "engines must not keep a handler's *coherent.Msg past the call",
	Run:  runMsgOwn,
}

func runMsgOwn(p *Pass) {
	if p.Pkg.Path() == coherentPath {
		return // the machine owns the records
	}
	if len(newLaneAnalysis(p.Fset, p.Files, p.Pkg, p.Info).engines) == 0 {
		return // no engine, so no handler receives a record
	}
	seen := map[token.Pos]bool{}
	report := func(pos token.Pos, format string, args ...any) {
		if !seen[pos] {
			seen[pos] = true
			p.Reportf(pos, format, args...)
		}
	}
	isMsg := func(e ast.Expr) bool { return isMsgPtr(p.Info.TypeOf(e)) }
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				msgFieldTypes(p, n.Type, report)
			case *ast.FuncLit:
				ast.Inspect(n.Body, func(c ast.Node) bool {
					id, ok := c.(*ast.Ident)
					if !ok {
						return true
					}
					if v, ok := p.Info.Uses[id].(*types.Var); ok && isMsgPtr(v.Type()) &&
						(v.Pos() < n.Pos() || v.Pos() >= n.End()) {
						report(id.Pos(), "func literal captures *coherent.Msg %s, whose record is recycled when the handler returns; capture a value copy or its fields", id.Name)
					}
					return true
				})
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					stored := isMsg(lhs)
					if len(n.Lhs) == len(n.Rhs) {
						stored = stored || isMsg(n.Rhs[i])
					}
					if stored && !isLocalVar(p, lhs) {
						report(lhs.Pos(), "*coherent.Msg stored in %s outlives the handler; keep a value copy", types.ExprString(lhs))
					}
				}
			case *ast.ValueSpec:
				for i, name := range n.Names {
					v, ok := p.Info.Defs[name].(*types.Var)
					if !ok || v.Parent() != p.Pkg.Scope() {
						continue
					}
					if isMsgPtr(v.Type()) || (i < len(n.Values) && isMsg(n.Values[i])) {
						report(name.Pos(), "package variable %s holds a *coherent.Msg", name.Name)
					}
				}
			case *ast.CompositeLit:
				for _, el := range n.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						if isMsg(kv.Key) {
							report(kv.Key.Pos(), "*coherent.Msg used as a composite-literal key outlives the handler")
						}
						el = kv.Value
					}
					if isMsg(el) {
						report(el.Pos(), "*coherent.Msg stored in a composite literal outlives the handler; keep a value copy")
					}
				}
			case *ast.CallExpr:
				if id, ok := n.Fun.(*ast.Ident); ok && len(n.Args) > 1 {
					if b, ok := p.Info.Uses[id].(*types.Builtin); ok && b.Name() == "append" {
						for _, a := range n.Args[1:] {
							if isMsg(a) {
								report(a.Pos(), "*coherent.Msg appended to a slice outlives the handler; defer through m.DeferToTxn or keep a value copy")
							}
						}
					}
				}
			case *ast.SendStmt:
				if isMsg(n.Value) {
					report(n.Value.Pos(), "*coherent.Msg sent on a channel outlives the handler")
				}
			}
			return true
		})
	}
}

// msgFieldTypes reports every *coherent.Msg inside a declared type: a
// struct field, an element of a slice, array, map or channel, or the
// type itself. Func and interface types are skipped: their parameters
// and results hold no value.
func msgFieldTypes(p *Pass, t ast.Expr, report func(token.Pos, string, ...any)) {
	ast.Inspect(t, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncType, *ast.InterfaceType:
			return false
		case ast.Expr:
			if isMsgPtr(p.Info.TypeOf(n)) {
				report(n.Pos(), "declared type holds a *coherent.Msg, a record the machine recycles; hold a coherent.Msg value")
				return false
			}
		}
		return true
	})
}

// isLocalVar reports whether lhs names a function-local variable (or is
// the blank identifier): storing there ends with the call.
func isLocalVar(p *Pass, lhs ast.Expr) bool {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok {
		return false
	}
	if id.Name == "_" {
		return true
	}
	v, ok := p.Info.ObjectOf(id).(*types.Var)
	return ok && !v.IsField() && v.Parent() != p.Pkg.Scope()
}

// isMsgPtr reports whether t is *coherent.Msg.
func isMsgPtr(t types.Type) bool {
	ptr, ok := types.Unalias(t).(*types.Pointer)
	if !ok {
		return false
	}
	n, ok := types.Unalias(ptr.Elem()).(*types.Named)
	return ok && n.Obj().Name() == "Msg" && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == coherentPath
}
