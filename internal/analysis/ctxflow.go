package analysis

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"
)

// CtxFlow keeps cancellation wired end to end. Library code that calls
// context.Background() (or context.TODO()) silently detaches itself
// from the caller's deadline — a sort that cannot be cancelled defeats
// the persistent-pool runtime's whole point. The analyzer enforces:
//
//   - context.Background()/context.TODO() appear only in main packages;
//     library code must thread the caller's context. Long-lived roots
//     (a service's own lifetime context) are opted out one line at a
//     time with //ecsort:ignore ctxflow <reason>.
//
//   - Exported entry points shaped like a sort (name starting with
//     Sort or Classify) in non-main library packages must accept a
//     context.Context or a *model.Session (which carries one). A
//     "Deprecated:" doc comment exempts nothing.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc:  "context.Background in library code; Sort-shaped entry points without a context",
	Run:  runCtxFlow,
}

var entryPointRE = regexp.MustCompile(`^(Sort|Classify)`)

func runCtxFlow(pass *Pass) {
	if pass.Pkg.Types.Name() == "main" {
		return
	}
	info := pass.Pkg.Info
	for _, file := range pass.Pkg.Files {
		funcScope(file, func(fd *ast.FuncDecl) {
			checkEntryPoint(pass, fd)
			ast.Inspect(fd, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				obj := info.Uses[sel.Sel]
				if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "context" {
					return true
				}
				if name := obj.Name(); name == "Background" || name == "TODO" {
					pass.Reportf(call.Pos(),
						"context.%s() in library code detaches from the caller's deadline: accept and thread a context.Context (or suppress a deliberate lifetime root with //ecsort:ignore ctxflow <reason>)",
						name)
				}
				return true
			})
		})
	}
}

// checkEntryPoint flags exported Sort*/Classify* functions that accept
// neither a context nor a Session.
func checkEntryPoint(pass *Pass, fd *ast.FuncDecl) {
	if fd.Recv != nil || !fd.Name.IsExported() || !entryPointRE.MatchString(fd.Name.Name) {
		return
	}
	obj := pass.Pkg.Info.Defs[fd.Name]
	if obj == nil {
		return
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok {
		return
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if carriesContext(sig.Params().At(i).Type()) {
			return
		}
	}
	pass.Reportf(fd.Name.Pos(),
		"entry point %s accepts neither context.Context nor *model.Session: sorts must be cancellable",
		fd.Name.Name)
}

// carriesContext reports whether a parameter type is context.Context, a
// *model.Session, or a type that embeds/carries one by name.
func carriesContext(t types.Type) bool {
	if named := namedBase(t); named != nil {
		obj := named.Obj()
		if obj.Pkg() != nil {
			path, name := obj.Pkg().Path(), obj.Name()
			if path == "context" && name == "Context" {
				return true
			}
			if name == "Session" && strings.HasSuffix(path, "internal/model") {
				return true
			}
		}
	}
	return false
}
