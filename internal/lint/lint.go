// Package lint is a small static-analysis framework in the style of
// golang.org/x/tools/go/analysis, built on the standard library only.
//
// The repository enforces seven SODA-specific invariants that go vet cannot
// express — determinism of the core (no map-iteration order leaking into
// decisions), purity of ABR controllers (Decide/Reset must be deterministic,
// side-effect-free functions of their inputs), unit safety (no silent mixing
// of seconds, megabits and Mb/s), wire confinement of float64 unit escapes,
// lock discipline over //soda:guard-annotated fields, all-or-nothing
// sync/atomic field access with 32-bit alignment checking, and
// allocation-freedom of //soda:noalloc-tagged hot paths. Each invariant is
// an Analyzer in a subpackage (detrange, purecontroller, unitsafe,
// nofloat64wire, guardedby, atomicfield, noalloc); cmd/soda-vet runs them
// all alongside the standard vet passes.
//
// An Analyzer receives one type-checked package at a time via a Pass and
// reports findings through Pass.Report. Packages are loaded with
// `go list -export -deps -test -json`, so dependency type information comes
// from the compiler's export data rather than from re-type-checking the
// world, and the test corpus (augmented packages and external _test
// packages) is analyzed alongside plain source (see load.go). Loading and
// analysis both run on a bounded worker pool; findings are concatenated in
// load order, so output is deterministic regardless of scheduling.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics (lowercase, no spaces).
	Name string
	// Doc is a one-paragraph description of what the analyzer checks.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// Pass carries one type-checked package through an Analyzer's Run.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File // the package's compiled files (including any in-package _test.go sources of augmented variants)
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf reports a formatted finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// ReceiverType names a method's receiver type without pointer or type
// arguments — "Ring" for both `(r *Ring)` and `(r *Ring[T])` — or returns ""
// for a plain function.
func ReceiverType(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return ""
	}
	t := fn.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	switch x := t.(type) {
	case *ast.IndexExpr:
		t = x.X
	case *ast.IndexListExpr:
		t = x.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}
