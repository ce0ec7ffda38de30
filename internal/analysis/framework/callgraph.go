package framework

import (
	"go/ast"
	"go/types"
)

// The call graph is the spine of the dataflow analyzers (arenaescape,
// eventpurity): per-package edges resolved statically through the type
// checker, joined across package boundaries by facts. Dynamic edges
// (interface dispatch, function values) are not resolved — analyzers
// over-approximate around them with seed lists on the known dispatch
// points instead.

// A CallSite is one static call inside a function body.
type CallSite struct {
	Call   *ast.CallExpr
	Callee *types.Func // resolved static callee, never nil
}

// A FuncNode is one function declaration of the package under analysis
// together with its outgoing static calls.
type FuncNode struct {
	Decl  *ast.FuncDecl
	Obj   *types.Func // the declared function object
	Calls []CallSite  // static calls in body order
}

// A CallGraph indexes the package's function declarations and their
// static call edges.
type CallGraph struct {
	Nodes []*FuncNode // declaration order, for determinism
	byObj map[*types.Func]*FuncNode
}

// BuildCallGraph walks every function declaration of the pass's files
// (test files excluded — invariants bind shipped code) and records its
// static callees. Calls inside function literals are charged to the
// enclosing declaration: the literal runs with the declaration's
// dynamic extent as far as the analyzers' invariants are concerned,
// except where an analyzer treats specific literals specially (e.g.
// registered event callbacks), which it does by walking the AST itself.
func BuildCallGraph(pass *Pass) *CallGraph {
	g := &CallGraph{byObj: map[*types.Func]*FuncNode{}}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || pass.InTestFile(fd.Pos()) {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			node := &FuncNode{Decl: fd, Obj: obj}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if callee := FuncFor(pass.TypesInfo, call.Fun); callee != nil {
					node.Calls = append(node.Calls, CallSite{Call: call, Callee: callee})
				}
				return true
			})
			g.Nodes = append(g.Nodes, node)
			g.byObj[obj] = node
		}
	}
	return g
}

// NodeOf returns the graph node declaring fn, or nil when fn is not
// declared in the analyzed package (imported, or synthesized).
func (g *CallGraph) NodeOf(fn *types.Func) *FuncNode { return g.byObj[fn] }

// CallsIn collects the static calls of an arbitrary AST region (e.g. a
// function literal's body) without needing a declaration node.
func CallsIn(info *types.Info, root ast.Node) []CallSite {
	var calls []CallSite
	ast.Inspect(root, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if callee := FuncFor(info, call.Fun); callee != nil {
			calls = append(calls, CallSite{Call: call, Callee: callee})
		}
		return true
	})
	return calls
}

// ReceiverTypeName returns the receiver base type name of a method
// ("RowBatch" for (*RowBatch).Row), or "" for package functions.
func ReceiverTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if ptr, isPtr := types.Unalias(t).(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return ""
	}
	return named.Obj().Name()
}

// FuncID renders a function's cross-package identity "pkgpath.Key"
// (the FactKey shape) for seed tables and messages.
func FuncID(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return FactKey(fn)
}
