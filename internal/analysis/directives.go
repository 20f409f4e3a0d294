package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// Directive is one //rept:<name> [args] comment. Directives attach
// invariants to declarations:
//
//	//rept:hotpath        on a function: no allocating constructs allowed
//	//rept:deterministic  on a function or in the package clause's doc:
//	                      no bare iteration over maps
//	//rept:sorter         on a function: its slice arguments are sorted
//	                      before being consumed (detorder trusts it the
//	                      way it trusts sort.Slice)
//	//rept:satcounter     on a type declaration: a wrap-prone counter type
//	                      whose arithmetic must go through //rept:sathelper
//	//rept:sathelper      on a function: implements saturating arithmetic
//	                      for a //rept:satcounter type
//	//rept:viewholder     on a field or statement line: deliberate
//	                      retention of an epoch view, exempt from
//	                      viewaccess
//	//rept:allowalloc     on a statement line: exempt from hotpathalloc,
//	                      with a justification in the args
//	//rept:anyorder       on a range statement line: exempt from detorder,
//	                      with a justification in the args
type Directive struct {
	Name string
	Args string
	Pos  token.Pos
}

const directivePrefix = "//rept:"

// parseDirectives extracts //rept:* directives from a comment group.
func parseDirectives(doc *ast.CommentGroup, into []Directive) []Directive {
	if doc == nil {
		return into
	}
	for _, c := range doc.List {
		rest, ok := strings.CutPrefix(c.Text, directivePrefix)
		if !ok {
			continue
		}
		name, args, _ := strings.Cut(rest, " ")
		into = append(into, Directive{Name: name, Args: strings.TrimSpace(args), Pos: c.Pos()})
	}
	return into
}

// has reports whether ds contains a directive with the given name.
func has(ds []Directive, name string) bool {
	for _, d := range ds {
		if d.Name == name {
			return true
		}
	}
	return false
}

// FuncHasDirective reports whether fn's doc comment carries the named
// directive.
func FuncHasDirective(fn *ast.FuncDecl, name string) bool {
	return has(parseDirectives(fn.Doc, nil), name)
}

// PackageHasDirective reports whether any file's package clause doc
// comment carries the named directive (marking the whole package).
func PackageHasDirective(files []*ast.File, name string) bool {
	for _, f := range files {
		if has(parseDirectives(f.Doc, nil), name) {
			return true
		}
	}
	return false
}

// FieldHasDirective reports whether a struct field's doc or trailing
// line comment carries the named directive.
func FieldHasDirective(f *ast.Field, name string) bool {
	return has(parseDirectives(f.Doc, nil), name) ||
		has(parseDirectives(f.Comment, nil), name)
}

// SpecHasDirective reports whether a type/value spec (or its enclosing
// declaration group) carries the named directive in its doc or trailing
// comment.
func SpecHasDirective(decl *ast.GenDecl, doc, comment *ast.CommentGroup, name string) bool {
	if has(parseDirectives(doc, nil), name) || has(parseDirectives(comment, nil), name) {
		return true
	}
	return decl != nil && has(parseDirectives(decl.Doc, nil), name)
}

// Suppressions maps source lines to the suppression directives placed on
// them (line-trailing or own-line comments), used for //rept:allowalloc,
// //rept:anyorder, and //rept:viewholder.
type Suppressions struct {
	fset  *token.FileSet
	lines map[string]map[int][]Directive // filename → line → directives
}

// NewSuppressions indexes every //rept:* comment of the files by line.
func NewSuppressions(fset *token.FileSet, files []*ast.File) *Suppressions {
	s := &Suppressions{fset: fset, lines: make(map[string]map[int][]Directive)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, d := range parseDirectives(cg, nil) {
				pos := fset.Position(d.Pos)
				m := s.lines[pos.Filename]
				if m == nil {
					m = make(map[int][]Directive)
					s.lines[pos.Filename] = m
				}
				m[pos.Line] = append(m[pos.Line], d)
			}
		}
	}
	return s
}

// Allows reports whether the named suppression directive sits on the
// same line as pos.
func (s *Suppressions) Allows(pos token.Pos, name string) bool {
	p := s.fset.Position(pos)
	return has(s.lines[p.Filename][p.Line], name)
}
