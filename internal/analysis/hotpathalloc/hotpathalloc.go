// Package hotpathalloc implements the reptvet analyzer enforcing the
// zero-allocation hot path: functions annotated //rept:hotpath — the
// per-event spine through the node dictionary's place/evict, the
// neighbor-set adds, removes and intersections,
// proc.processEdge/deleteEdge, the ctab counter ops, and reptserve's
// parseEdgeLine — must not contain allocating constructs.
//
// Flagged inside a hot function:
//
//   - make and new calls (capacity building belongs in cold helpers like
//     NodeTable.grow, EdgeTable.grow, nset.retable or sideStore.take)
//   - append whose result is not assigned back to its own first argument
//     (amortized in-place growth is the one allowed append shape)
//   - map and slice composite literals, and &T{} pointer literals
//   - function literals (escaping closures) and go statements
//   - deferred calls (deferred work on a per-event path is overhead even
//     when open-coded)
//   - calls into fmt, log, or errors
//   - conversions to interface types, and implicit interface conversions
//     at call sites when the argument is not pointer-shaped
//   - string(b []byte) / []byte(s) conversions outside comparison and
//     switch-tag positions (where the compiler elides the copy)
//
// The dynamic AllocsPerRun gates measure the same paths end to end; this
// analyzer catches the constructs at compile time, on every build, on
// paths tests do not exercise. A deliberate exception is suppressed with
// //rept:allowalloc <why> on the offending line.
package hotpathalloc

import (
	"go/ast"
	"go/token"
	"go/types"

	"rept/internal/analysis"
)

// Analyzer is the hotpathalloc analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "hotpathalloc",
	Doc:  "forbid allocating constructs in //rept:hotpath functions",
	Run:  run,
}

// allocPackages are packages whose mere invocation allocates.
var allocPackages = map[string]string{
	"fmt":    "fmt call",
	"log":    "log call",
	"errors": "errors call",
}

func run(pass *analysis.Pass) error {
	sup := analysis.NewSuppressions(pass.Fset, pass.Files)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !analysis.FuncHasDirective(fn, "hotpath") {
				continue
			}
			c := &checker{pass: pass, sup: sup, fn: fn.Name.Name}
			c.stmts(fn.Body.List)
		}
	}
	return nil
}

// checker walks one hot function's body tracking enough statement context
// to recognize the allowed append and string-conversion shapes.
type checker struct {
	pass *analysis.Pass
	sup  *analysis.Suppressions
	fn   string
}

func (c *checker) report(pos token.Pos, format string, args ...any) {
	if c.sup.Allows(pos, "allowalloc") {
		return
	}
	args = append(args, c.fn)
	c.pass.Reportf(pos, format+" in hot path %s", args...)
}

func (c *checker) stmts(list []ast.Stmt) {
	for _, s := range list {
		c.stmt(s)
	}
}

// stmt dispatches one statement, handling the forms that give their
// sub-expressions special context (assignments for append, switches and
// comparisons for string conversions).
func (c *checker) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.AssignStmt:
		for i, rhs := range s.Rhs {
			var lhs ast.Expr
			if len(s.Lhs) == len(s.Rhs) {
				lhs = s.Lhs[i]
			}
			c.assignExpr(lhs, rhs, s.Tok)
		}
		for _, lhs := range s.Lhs {
			c.expr(lhs)
		}
	case *ast.ExprStmt:
		c.expr(s.X)
	case *ast.SendStmt:
		c.expr(s.Chan)
		c.expr(s.Value)
	case *ast.IncDecStmt:
		c.expr(s.X)
	case *ast.GoStmt:
		c.report(s.Pos(), "go statement")
	case *ast.DeferStmt:
		c.report(s.Pos(), "deferred call")
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			c.expr(r)
		}
	case *ast.BlockStmt:
		c.stmts(s.List)
	case *ast.IfStmt:
		c.stmt(s.Init)
		c.expr(s.Cond)
		c.stmt(s.Body)
		c.stmt(s.Else)
	case *ast.ForStmt:
		c.stmt(s.Init)
		if s.Cond != nil {
			c.expr(s.Cond)
		}
		c.stmt(s.Post)
		c.stmt(s.Body)
	case *ast.RangeStmt:
		c.expr(s.X)
		c.stmt(s.Body)
	case *ast.SwitchStmt:
		c.stmt(s.Init)
		if s.Tag != nil {
			c.comparisonOperand(s.Tag)
		}
		for _, cl := range s.Body.List {
			cc := cl.(*ast.CaseClause)
			for _, e := range cc.List {
				c.comparisonOperand(e)
			}
			c.stmts(cc.Body)
		}
	case *ast.TypeSwitchStmt:
		c.stmt(s.Init)
		c.stmt(s.Assign)
		for _, cl := range s.Body.List {
			c.stmts(cl.(*ast.CaseClause).Body)
		}
	case *ast.SelectStmt:
		for _, cl := range s.Body.List {
			cc := cl.(*ast.CommClause)
			c.stmt(cc.Comm)
			c.stmts(cc.Body)
		}
	case *ast.LabeledStmt:
		c.stmt(s.Stmt)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						c.expr(v)
					}
				}
			}
		}
	case *ast.BranchStmt, *ast.EmptyStmt:
	default:
		ast.Inspect(s, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				c.expr(e)
				return false
			}
			return true
		})
	}
}

// assignExpr checks one assignment's RHS with knowledge of its LHS, which
// is what legitimizes the amortized `x = append(x, ...)` idiom.
func (c *checker) assignExpr(lhs, rhs ast.Expr, tok token.Token) {
	if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && c.pass.IsBuiltin(call, "append") {
		if lhs == nil || tok != token.ASSIGN || !sameExpr(lhs, call.Args[0]) {
			c.report(rhs.Pos(), "append result not assigned back to its first argument")
		}
		for _, a := range call.Args[1:] {
			c.expr(a)
		}
		return
	}
	c.expr(rhs)
}

// comparisonOperand checks an expression in a position where byte-slice/
// string conversions are free (switch tags, case values, comparisons).
func (c *checker) comparisonOperand(e ast.Expr) {
	if call, ok := ast.Unparen(e).(*ast.CallExpr); ok && c.pass.IsConversion(call) && isStringBytesConv(c.pass, call) {
		c.expr(call.Args[0])
		return
	}
	c.expr(e)
}

func (c *checker) expr(e ast.Expr) {
	switch e := e.(type) {
	case nil:
	case *ast.CallExpr:
		c.call(e)
	case *ast.CompositeLit:
		c.composite(e, false)
	case *ast.FuncLit:
		c.report(e.Pos(), "function literal (may escape)")
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			if cl, ok := ast.Unparen(e.X).(*ast.CompositeLit); ok {
				c.composite(cl, true)
				return
			}
		}
		c.expr(e.X)
	case *ast.BinaryExpr:
		if e.Op.IsOperator() && isComparison(e.Op) {
			c.comparisonOperand(e.X)
			c.comparisonOperand(e.Y)
			return
		}
		c.expr(e.X)
		c.expr(e.Y)
	case *ast.ParenExpr:
		c.expr(e.X)
	case *ast.SelectorExpr:
		c.expr(e.X)
	case *ast.IndexExpr:
		c.expr(e.X)
		c.expr(e.Index)
	case *ast.IndexListExpr:
		c.expr(e.X)
		for _, i := range e.Indices {
			c.expr(i)
		}
	case *ast.SliceExpr:
		c.expr(e.X)
		c.expr(e.Low)
		c.expr(e.High)
		c.expr(e.Max)
	case *ast.StarExpr:
		c.expr(e.X)
	case *ast.TypeAssertExpr:
		c.expr(e.X)
	case *ast.KeyValueExpr:
		c.expr(e.Key)
		c.expr(e.Value)
	}
}

func (c *checker) call(call *ast.CallExpr) {
	switch {
	case c.pass.IsBuiltin(call, "make"):
		c.report(call.Pos(), "make")
	case c.pass.IsBuiltin(call, "new"):
		c.report(call.Pos(), "new")
	case c.pass.IsBuiltin(call, "append"):
		// Reached only outside an assignment context (argument, return),
		// where the grown slice is always a fresh allocation candidate.
		c.report(call.Pos(), "append result not assigned back to its first argument")
	case c.pass.IsConversion(call):
		c.conversion(call)
	default:
		if pkg, _ := c.pass.CalleePath(call); pkg != "" {
			if what, ok := allocPackages[pkg]; ok {
				c.report(call.Pos(), "%s", what)
			}
		}
		c.interfaceArgs(call)
	}
	for _, a := range call.Args {
		c.expr(a)
	}
}

func (c *checker) conversion(call *ast.CallExpr) {
	to := c.pass.TypeOf(call.Fun)
	if to == nil || len(call.Args) != 1 {
		return
	}
	if types.IsInterface(to.Underlying()) {
		from := c.pass.TypeOf(call.Args[0])
		if from != nil && !types.IsInterface(from.Underlying()) {
			c.report(call.Pos(), "conversion to interface %s", to)
		}
		return
	}
	if isStringBytesConv(c.pass, call) {
		c.report(call.Pos(), "string/[]byte conversion outside a comparison")
	}
}

// interfaceArgs flags implicit interface conversions at a call site when
// the argument is not pointer-shaped (pointer-shaped values fit the
// interface data word and do not allocate).
func (c *checker) interfaceArgs(call *ast.CallExpr) {
	sig, ok := typeAsSignature(c.pass.TypeOf(call.Fun))
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis != token.NoPos {
				continue
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(pt.Underlying()) {
			continue
		}
		at := c.pass.TypeOf(arg)
		if at == nil || types.IsInterface(at.Underlying()) || isUntypedNil(at) || pointerShaped(at) {
			continue
		}
		c.report(arg.Pos(), "implicit conversion of %s to interface %s", at, pt)
	}
}

func typeAsSignature(t types.Type) (*types.Signature, bool) {
	if t == nil {
		return nil, false
	}
	sig, ok := t.Underlying().(*types.Signature)
	return sig, ok
}

func isUntypedNil(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Kind() == types.UntypedNil
}

// pointerShaped reports whether values of t occupy a single pointer word,
// making their interface conversion allocation-free.
func pointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.UnsafePointer
}

// isStringBytesConv reports a string(b []byte) or []byte(s) conversion.
func isStringBytesConv(pass *analysis.Pass, call *ast.CallExpr) bool {
	if len(call.Args) != 1 {
		return false
	}
	to, from := pass.TypeOf(call.Fun), pass.TypeOf(call.Args[0])
	if to == nil || from == nil {
		return false
	}
	return (isString(to) && isByteSlice(from)) || (isByteSlice(to) && isString(from))
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

func isComparison(op token.Token) bool {
	switch op {
	case token.EQL, token.NEQ, token.LSS, token.GTR, token.LEQ, token.GEQ:
		return true
	}
	return false
}

// composite flags allocating composite literals: map and slice literals
// always, struct literals only when their address is taken.
func (c *checker) composite(cl *ast.CompositeLit, addressed bool) {
	t := c.pass.TypeOf(cl)
	if t != nil {
		switch t.Underlying().(type) {
		case *types.Map:
			c.report(cl.Pos(), "map literal")
		case *types.Slice:
			c.report(cl.Pos(), "slice literal")
		default:
			if addressed {
				c.report(cl.Pos(), "&composite literal")
			}
		}
	}
	for _, e := range cl.Elts {
		c.expr(e)
	}
}

// sameExpr reports whether two expressions are syntactically identical
// (the `x = append(x, ...)` test).
func sameExpr(a, b ast.Expr) bool {
	return types.ExprString(ast.Unparen(a)) == types.ExprString(ast.Unparen(b))
}
