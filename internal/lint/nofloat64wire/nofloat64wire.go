// Package nofloat64wire confines float64-laundered unit values to the wire.
//
// After the internal/units migration, float64(x) is the sanctioned exit from
// typed dimensional arithmetic into plain numbers. Inside a package that is
// fine: the conversion and its consumer are one screen apart and the unit is
// recoverable by reading the function. The moment the raw float64 crosses a
// package boundary, the unit is gone — the receiving package sees a bare
// number and cannot tell 20 seconds from 20 megabits, which is exactly the
// bug class internal/units exists to kill.
//
// The repository therefore designates a small set of wire-boundary packages
// — the serialization surfaces where quantities genuinely must become plain
// numbers because the other end is a byte format, not Go:
//
//	internal/proto      binary segment-streaming protocol (JSON manifest)
//	internal/httpseg    /decide control plane (query floats in, JSON out)
//	internal/trace      trace CSV reader/writer
//	internal/telemetry  metrics exposition and decision-trace export (the
//	                    registry enforces unit-suffixed metric names, so the
//	                    dimension survives in the name even though the wire
//	                    value is a bare number)
//	internal/flightrec  span, incident and timeline JSONL and trace export
//
// Each wire package carries the machine-checked doc directive
//
//	//soda:wire-boundary
//
// on its package comment. The analyzer cross-checks the two sources of
// truth: a sanctioned package missing the directive is a finding, and an
// unsanctioned package carrying the directive is a finding, so the tag set
// and the allow list cannot drift apart.
//
// Everywhere else, the analyzer flags a float64(unitValue) conversion whose
// result immediately crosses a package boundary:
//
//  1. as an argument to a function or method declared in another package,
//  2. as a field value in a composite literal of a struct type declared in
//     another package, or
//  3. assigned to a field of a struct type declared in another package.
//
// Exempt destinations: the wire-boundary packages themselves, package math
// (dimensionless numerics is its whole job), the units package (its own
// constructors and helpers), and parameters of interface type (fmt-style
// formatting consumes values reflectively; no quantity arithmetic happens
// on the other side).
//
// The check is deliberately single-expression: laundering into a local
// float64 variable and passing that along is out of scope, as is derived
// dimensionless arithmetic like float64(a)/float64(b). The analyzer exists
// to make the idiomatic shortcut — casting at the call site — visibly wrong,
// not to be a data-flow analysis.
package nofloat64wire

import (
	"go/ast"
	"go/types"
	"path"
	"strings"

	"repro/internal/lint"
)

// Directive is the doc-comment tag a wire-boundary package must carry.
const Directive = "//soda:wire-boundary"

// WirePackages are the sanctioned laundering sites, identified by the last
// element of their import path (fixture packages mirror real ones by base
// name, like the unitsafe "units" suffix rule). A package's external test
// package shares its boundary status.
var WirePackages = []string{"proto", "httpseg", "trace", "telemetry", "flightrec"}

// Analyzer is the nofloat64wire analyzer.
var Analyzer = &lint.Analyzer{
	Name: "nofloat64wire",
	Doc: "flags float64(unit) conversions that cross a package boundary outside " +
		"the tagged wire-boundary packages, and keeps the tag set and allow list in sync",
	Run: run,
}

// IsWireBoundary reports whether the import path names a sanctioned
// wire-boundary package (or its external test package).
func IsWireBoundary(pkgPath string) bool {
	base := strings.TrimSuffix(path.Base(pkgPath), "_test")
	for _, w := range WirePackages {
		if base == w {
			return true
		}
	}
	return false
}

func run(pass *lint.Pass) error {
	pkgPath := pass.Pkg.Path()
	if strings.HasSuffix(pkgPath, "units") {
		return nil
	}
	tagged := hasDirective(pass.Files)
	wire := IsWireBoundary(pkgPath)
	switch {
	case wire && !tagged && !isTestPackage(pass.Pkg):
		for _, f := range pass.Files {
			if f.Doc != nil || len(pass.Files) == 1 {
				pass.Reportf(f.Name.Pos(),
					"package %s is a sanctioned wire boundary but its package comment lacks the %s directive",
					pass.Pkg.Name(), Directive)
				break
			}
		}
	case tagged && !wire:
		for _, f := range pass.Files {
			if hasDirective([]*ast.File{f}) {
				pass.Reportf(f.Name.Pos(),
					"package %s carries %s but is not in the sanctioned wire-boundary list; remove the directive or extend nofloat64wire.WirePackages",
					pass.Pkg.Name(), Directive)
			}
		}
	}
	if wire {
		// Inside the wire, laundering is the point.
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkCall(pass, n)
			case *ast.CompositeLit:
				checkCompositeLit(pass, n)
			case *ast.AssignStmt:
				checkAssign(pass, n)
			}
			return true
		})
	}
	return nil
}

// hasDirective reports whether any file's package comment contains the
// wire-boundary directive as a line of its own.
func hasDirective(files []*ast.File) bool {
	for _, f := range files {
		if f.Doc == nil {
			continue
		}
		for _, c := range f.Doc.List {
			if strings.TrimSpace(c.Text) == Directive {
				return true
			}
		}
	}
	return false
}

// isTestPackage reports whether pkg is a test variant (external _test
// package or a test-augmented build), which inherits but need not repeat
// the package doc of the package under test.
func isTestPackage(pkg *types.Package) bool {
	return strings.HasSuffix(pkg.Name(), "_test") || strings.Contains(pkg.Path(), ".test")
}

// unitType returns the named unit type of t, or nil: a defined float64 type
// from a package whose import path ends in "units".
func unitType(t types.Type) *types.Named {
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	obj := named.Obj()
	if obj.Pkg() == nil || !strings.HasSuffix(obj.Pkg().Path(), "units") {
		return nil
	}
	if basic, ok := named.Underlying().(*types.Basic); !ok || basic.Kind() != types.Float64 {
		return nil
	}
	return named
}

// launderedUnit returns the unit type inside a float64(x) conversion
// expression, or nil.
func launderedUnit(pass *lint.Pass, e ast.Expr) *types.Named {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return nil
	}
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok || !tv.IsType() {
		return nil
	}
	if basic, ok := tv.Type.(*types.Basic); !ok || basic.Kind() != types.Float64 {
		return nil
	}
	argTV, ok := pass.TypesInfo.Types[call.Args[0]]
	if !ok {
		return nil
	}
	return unitType(argTV.Type)
}

// exemptDestination reports whether a float64-laundered unit may legitimately
// flow into pkg: the wire boundaries, math, and units itself.
func exemptDestination(pkg *types.Package) bool {
	p := pkg.Path()
	return IsWireBoundary(p) || p == "math" || strings.HasSuffix(p, "units")
}

// checkCall flags float64(unit) arguments to calls of functions declared in
// a different, non-exempt package (skipping interface-typed parameters,
// where the value is consumed reflectively).
func checkCall(pass *lint.Pass, call *ast.CallExpr) {
	callee := calleeObject(pass, call)
	if callee == nil || callee.Pkg() == nil || callee.Pkg() == pass.Pkg || exemptDestination(callee.Pkg()) {
		return
	}
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok || tv.IsType() {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		u := launderedUnit(pass, arg)
		if u == nil {
			continue
		}
		var paramType types.Type
		switch {
		case sig.Variadic() && i >= sig.Params().Len()-1:
			slice, ok := sig.Params().At(sig.Params().Len() - 1).Type().(*types.Slice)
			if !ok {
				continue
			}
			paramType = slice.Elem()
		case i < sig.Params().Len():
			paramType = sig.Params().At(i).Type()
		default:
			continue
		}
		if _, isIface := paramType.Underlying().(*types.Interface); isIface {
			continue
		}
		pass.Reportf(arg.Pos(),
			"float64(%s) crosses into package %s, which is not a wire boundary; pass the %s value and convert on the far side, or route through a tagged wire package",
			u.Obj().Name(), callee.Pkg().Name(), u.Obj().Name())
	}
}

// calleeObject resolves the function or method object a call invokes.
func calleeObject(pass *lint.Pass, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return pass.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		return pass.TypesInfo.Uses[fun.Sel]
	}
	return nil
}

// checkCompositeLit flags float64(unit) field values in composite literals
// of struct types declared in a different, non-exempt package.
func checkCompositeLit(pass *lint.Pass, cl *ast.CompositeLit) {
	tv, ok := pass.TypesInfo.Types[cl]
	if !ok {
		return
	}
	named := unwrapNamed(tv.Type)
	if named == nil {
		return
	}
	if _, isStruct := named.Underlying().(*types.Struct); !isStruct {
		return
	}
	owner := named.Obj().Pkg()
	if owner == nil || owner == pass.Pkg || exemptDestination(owner) {
		return
	}
	for _, elt := range cl.Elts {
		value := elt
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			value = kv.Value
		}
		if u := launderedUnit(pass, value); u != nil {
			pass.Reportf(value.Pos(),
				"float64(%s) crosses into %s.%s, which is not a wire boundary; give the field a unit type or route through a tagged wire package",
				u.Obj().Name(), owner.Name(), named.Obj().Name())
		}
	}
}

// checkAssign flags float64(unit) assigned to a field declared in a
// different, non-exempt package.
func checkAssign(pass *lint.Pass, as *ast.AssignStmt) {
	for i, lhs := range as.Lhs {
		if i >= len(as.Rhs) {
			break
		}
		u := launderedUnit(pass, as.Rhs[i])
		if u == nil {
			continue
		}
		sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
		if !ok {
			continue
		}
		field, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Var)
		if !ok || !field.IsField() || field.Pkg() == nil || field.Pkg() == pass.Pkg || exemptDestination(field.Pkg()) {
			continue
		}
		pass.Reportf(as.Rhs[i].Pos(),
			"float64(%s) assigned to %s field %s, which is not a wire boundary; give the field a unit type or route through a tagged wire package",
			u.Obj().Name(), field.Pkg().Name(), field.Name())
	}
}

// unwrapNamed returns the named type of t, looking through one level of
// pointer (for &pkg.T{...} literals the composite's own type is already the
// struct, but tv types of some literal positions carry pointers).
func unwrapNamed(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}
