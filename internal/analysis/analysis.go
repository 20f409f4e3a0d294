// Package analysis is a minimal, dependency-free analyzer framework in
// the shape of golang.org/x/tools/go/analysis: an Analyzer inspects one
// type-checked package through a Pass and reports position-anchored
// diagnostics. It exists because the REPT invariants that matter most —
// the zero-allocation hot path, deterministic iteration wherever state is
// encoded or merged, saturating counter arithmetic, and epoch-view
// access discipline — are properties the compiler does not check and
// runtime tests catch only on exercised paths. cmd/reptvet drives every registered analyzer over ./... as a
// failing CI gate.
//
// Analyzers are configured by //rept:* directive comments in the source
// they inspect (see Directive); the directives double as documentation of
// which code carries which invariant.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and on the reptvet
	// command line.
	Name string
	// Doc is the one-paragraph description printed by reptvet -list.
	Doc string
	// Run inspects one package and reports findings through the Pass.
	Run func(*Pass) error
}

// Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Pass carries one package's syntax and type information to an analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags []Diagnostic
}

// Reportf records one diagnostic.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostics returns the findings reported so far, in position order.
func (p *Pass) Diagnostics() []Diagnostic {
	sort.SliceStable(p.diags, func(i, j int) bool { return p.diags[i].Pos < p.diags[j].Pos })
	return p.diags
}

// TypeOf returns the type of e, or nil when unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	return p.Info.TypeOf(e)
}

// IsMap reports whether e has map type (after unwrapping named types).
func (p *Pass) IsMap(e ast.Expr) bool {
	t := p.TypeOf(e)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// CalleeFunc resolves the *types.Func a call invokes (method or plain
// function), or nil for builtins, conversions, and indirect calls.
func (p *Pass) CalleeFunc(call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := p.Info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := p.Info.Uses[fun.Sel].(*types.Func)
		return f
	case *ast.IndexExpr:
		return p.CalleeFunc(&ast.CallExpr{Fun: fun.X})
	case *ast.IndexListExpr:
		return p.CalleeFunc(&ast.CallExpr{Fun: fun.X})
	}
	return nil
}

// CalleePath returns the defining package path and name of the function a
// call invokes ("" for builtins, conversions, and indirect calls).
func (p *Pass) CalleePath(call *ast.CallExpr) (pkgPath, name string) {
	f := p.CalleeFunc(call)
	if f == nil {
		return "", ""
	}
	if f.Pkg() != nil {
		pkgPath = f.Pkg().Path()
	}
	return pkgPath, f.Name()
}

// IsBuiltin reports whether the call invokes the named builtin.
func (p *Pass) IsBuiltin(call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	b, ok := p.Info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

// IsConversion reports whether the call is a type conversion.
func (p *Pass) IsConversion(call *ast.CallExpr) bool {
	tv, ok := p.Info.Types[call.Fun]
	return ok && tv.IsType()
}
