// Package purecontroller statically enforces that ABR controllers are pure:
// a controller's Decide and Reset methods must be deterministic functions of
// the receiver and their arguments, with no ambient inputs and no side
// effects outside the receiver.
//
// Purity is what makes the repository's conformance suite (internal/abrtest)
// and golden-file experiments meaningful — replaying a trace must reproduce
// the same decisions — and it is what SODA's §5 deployment story relies on:
// the controller runs client-side per decision epoch, so wall-clock reads,
// global state and I/O in the decision path are bugs, not style issues.
//
// A controller is detected structurally: any named type declaring both a
// Decide and a Reset method (the shape of abr.Controller). In those methods,
// and in every same-package function or method they transitively call,
// purecontroller reports:
//
//   - reads of the wall clock (time.Now, time.Since, time.Until),
//   - draws from shared randomness (math/rand and math/rand/v2 package-level
//     functions; constructing an explicitly-seeded rand.New(...) is allowed),
//   - goroutine launches,
//   - writes to package-level variables, and
//   - I/O (the os, net, net/http and syscall packages, and fmt printing to
//     stdout/stderr).
//
// Receiver-field mutation is allowed: controllers legitimately carry caches
// and error windows across decisions (core's lazily built cost model and work
// counters, RobustMPC's error history). Determinism requires a pure function
// of the session's observation history, which receiver state preserves and
// global state does not.
package purecontroller

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/lint"
)

// Analyzer is the purecontroller analyzer.
var Analyzer = &lint.Analyzer{
	Name: "purecontroller",
	Doc: "flags wall-clock reads, shared randomness, goroutines, package-level writes " +
		"and I/O reachable from any controller's Decide/Reset methods",
	Run: run,
}

// ioPackages are import paths whose use inside a controller is I/O by
// definition.
var ioPackages = map[string]bool{
	"os":       true,
	"net":      true,
	"net/http": true,
	"syscall":  true,
}

// clockFuncs are the time package's ambient-input functions. time.Duration
// arithmetic and time.Time parameters are fine; sampling the clock is not.
var clockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// randConstructors are math/rand functions that build an explicitly-seeded
// generator instead of drawing from the shared one; these are allowed.
var randConstructors = map[string]bool{
	"New":        true,
	"NewPCG":     true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewChaCha8": true,
}

func run(pass *lint.Pass) error {
	// funcs maps every package-level function/method declaration to its
	// types.Object so the call graph can be walked.
	decls := make(map[types.Object]*ast.FuncDecl)
	var roots []*ast.FuncDecl
	rootName := make(map[*ast.FuncDecl]string)

	controllers := controllerTypes(pass)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj := pass.TypesInfo.Defs[fd.Name]
			if obj == nil {
				continue
			}
			decls[obj] = fd
			if recv := receiverNamed(pass, fd); recv != nil && controllers[recv] &&
				(fd.Name.Name == "Decide" || fd.Name.Name == "Reset") {
				roots = append(roots, fd)
				rootName[fd] = "(" + recv.Obj().Name() + ")." + fd.Name.Name
			}
		}
	}

	// Walk the same-package call graph from each controller method. A helper
	// reachable from two controllers is checked once per root so the finding
	// names the controller method that reaches it.
	for _, root := range roots {
		seen := make(map[*ast.FuncDecl]bool)
		var visit func(fd *ast.FuncDecl)
		visit = func(fd *ast.FuncDecl) {
			if seen[fd] {
				return
			}
			seen[fd] = true
			checkBody(pass, fd, rootName[root])
			for _, callee := range samePackageCallees(pass, fd, decls) {
				visit(callee)
			}
		}
		visit(root)
	}
	return nil
}

// controllerTypes returns the named types in this package declaring both
// Decide and Reset methods — the structural shape of abr.Controller.
func controllerTypes(pass *lint.Pass) map[*types.Named]bool {
	out := make(map[*types.Named]bool)
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		var hasDecide, hasReset bool
		for i := 0; i < named.NumMethods(); i++ {
			switch named.Method(i).Name() {
			case "Decide":
				hasDecide = true
			case "Reset":
				hasReset = true
			}
		}
		if hasDecide && hasReset {
			out[named] = true
		}
	}
	return out
}

// receiverNamed resolves a method declaration's receiver to its named type,
// unwrapping a pointer receiver.
func receiverNamed(pass *lint.Pass, fd *ast.FuncDecl) *types.Named {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return nil
	}
	t := pass.TypesInfo.Types[fd.Recv.List[0].Type].Type
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// samePackageCallees returns the package-level functions and methods of this
// package that fd calls directly.
func samePackageCallees(pass *lint.Pass, fd *ast.FuncDecl, decls map[types.Object]*ast.FuncDecl) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		var obj types.Object
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			obj = pass.TypesInfo.Uses[fun]
		case *ast.SelectorExpr:
			obj = pass.TypesInfo.Uses[fun.Sel]
		}
		if obj == nil || obj.Pkg() != pass.Pkg {
			return true
		}
		if callee, ok := decls[obj]; ok {
			out = append(out, callee)
		}
		return true
	})
	return out
}

// checkBody reports every impurity in one function body, attributing it to
// the controller method it is reachable from.
func checkBody(pass *lint.Pass, fd *ast.FuncDecl, root string) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			pass.Reportf(n.Go, "goroutine launched in controller path %s: decisions must be synchronous and deterministic", root)
		case *ast.CallExpr:
			checkCall(pass, n, root)
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				checkGlobalWrite(pass, lhs, root)
			}
		case *ast.IncDecStmt:
			checkGlobalWrite(pass, n.X, root)
		}
		return true
	})
}

// checkCall flags clock reads, shared randomness and I/O calls.
func checkCall(pass *lint.Pass, call *ast.CallExpr, root string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	obj := pass.TypesInfo.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil {
		return
	}
	pkgPath := obj.Pkg().Path()
	// Only package-level functions matter here: x.Read() on a local variable
	// whose type comes from os is method dispatch, reported only when the
	// value itself was obtained through the os package.
	if _, isPkg := pass.TypesInfo.Uses[sel.Sel].(*types.Func); !isPkg {
		return
	}
	if id, ok := sel.X.(*ast.Ident); !ok || pass.TypesInfo.Uses[id] == nil {
		return
	} else if _, isPkgName := pass.TypesInfo.Uses[id].(*types.PkgName); !isPkgName {
		return
	}
	switch {
	case pkgPath == "time" && clockFuncs[obj.Name()]:
		pass.Reportf(call.Pos(), "call to time.%s in controller path %s: wall-clock input breaks replayability; take the time from the decision context", obj.Name(), root)
	case (pkgPath == "math/rand" || pkgPath == "math/rand/v2") && !randConstructors[obj.Name()]:
		pass.Reportf(call.Pos(), "call to shared math/rand in controller path %s: draw from a seeded *rand.Rand carried in the receiver instead", root)
	case ioPackages[pkgPath]:
		pass.Reportf(call.Pos(), "call into package %s in controller path %s: controllers must not perform I/O", pkgPath, root)
	case pkgPath == "fmt" && strings.HasPrefix(obj.Name(), "Print"):
		pass.Reportf(call.Pos(), "fmt.%s writes to stdout in controller path %s: controllers must not perform I/O", obj.Name(), root)
	}
}

// checkGlobalWrite flags assignments whose target resolves to a
// package-level variable.
func checkGlobalWrite(pass *lint.Pass, lhs ast.Expr, root string) {
	// Unwrap x.f, x[i], *x down to the root identifier.
	for {
		switch e := lhs.(type) {
		case *ast.SelectorExpr:
			lhs = e.X
			continue
		case *ast.IndexExpr:
			lhs = e.X
			continue
		case *ast.StarExpr:
			lhs = e.X
			continue
		case *ast.ParenExpr:
			lhs = e.X
			continue
		case *ast.Ident:
			obj, ok := pass.TypesInfo.Uses[e].(*types.Var)
			if !ok {
				return
			}
			if obj.Parent() == obj.Pkg().Scope() {
				pass.Reportf(e.Pos(), "write to package-level variable %s in controller path %s: keep mutable state on the receiver", e.Name, root)
			}
			return
		default:
			return
		}
	}
}
