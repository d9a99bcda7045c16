package lint

import (
	"go/ast"
	"go/types"
)

// ctxStructExemptSegments names the packages allowed to carry a
// context.Context inside a struct: internal/sweep's documented plumbing
// threads cancellation through worker state by design.
var ctxStructExemptSegments = map[string]bool{"sweep": true}

// CtxFirst enforces the repository's context conventions: context.Context
// is always the first parameter of any signature (declarations, literals,
// interface methods, and function-typed fields alike), and it is never
// stored in a struct outside internal/sweep. A stored context outlives the
// call it belongs to and silently detaches cancellation from the caller.
// Inside a //fap:zeroalloc function — the per-iteration hot paths — it
// also forbids context.Context.Err: a cancelable context's Err locks its
// mutex, which every sweep worker sharing the context contends on, while a
// non-blocking receive from a Done channel loaded once takes no lock.
var CtxFirst = &Analyzer{
	Name: "ctxfirst",
	Doc:  "context.Context must be the first parameter, never live in a struct outside internal/sweep, and not be polled with Err in a //fap:zeroalloc function",
	Run:  runCtxFirst,
}

func runCtxFirst(p *Pass) {
	structExempt := hasSegment(p.Path, ctxStructExemptSegments)
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncType:
				checkCtxParamOrder(p, n)
			case *ast.StructType:
				if structExempt {
					return true
				}
				for _, field := range n.Fields.List {
					if isContextType(p.Info.TypeOf(field.Type)) {
						p.Reportf(field.Pos(), "context.Context stored in a struct detaches cancellation from the caller; pass it as the first parameter instead")
					}
				}
			}
			return true
		})
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil && hasDirective(fd.Doc, zeroAllocDirective) {
				checkCtxErrPoll(p, fd.Body)
			}
		}
	}
}

// checkCtxErrPoll reports every context.Context.Err call in body.
func checkCtxErrPoll(p *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if ok && sel.Sel.Name == "Err" && isContextType(p.Info.TypeOf(sel.X)) {
			p.Reportf(call.Pos(), "context.Context.Err locks the context's mutex in a //fap:zeroalloc function; poll ctx.Done() with a non-blocking select")
		}
		return true
	})
}

func checkCtxParamOrder(p *Pass, ft *ast.FuncType) {
	if ft.Params == nil {
		return
	}
	index := 0
	for _, field := range ft.Params.List {
		if isContextType(p.Info.TypeOf(field.Type)) && index > 0 {
			p.Reportf(field.Pos(), "context.Context must be the first parameter")
		}
		if n := len(field.Names); n > 0 {
			index += n
		} else {
			index++
		}
	}
}

// isContextType reports whether t is exactly context.Context.
func isContextType(t types.Type) bool {
	if t == nil {
		return false
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}
