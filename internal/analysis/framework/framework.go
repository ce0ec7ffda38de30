// Package framework is a minimal, dependency-free re-implementation of
// the golang.org/x/tools/go/analysis Analyzer/Pass API.
//
// The repository's vet suite (cmd/biscuitvet and the analyzers under
// internal/analysis/...) would normally build on x/tools, but this tree
// must compile with the standard library alone, so the small slice of
// the analysis API the suite needs lives here. The shapes (Analyzer,
// Pass, Diagnostic, // want-style tests) mirror x/tools deliberately:
// if a vendored x/tools ever becomes available, the analyzers port over
// by changing one import path.
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"reflect"
	"strings"
)

// An Analyzer describes one invariant check. It is pure: Run may not
// mutate global state, so one Analyzer value can be shared by the
// multichecker, go vet workers, and tests.
type Analyzer struct {
	// Name identifies the analyzer. It doubles as the suffix of its
	// suppression directive: a comment //biscuitvet:<name>-ok on the
	// flagged line, the line above it, or in the file header waives
	// the check.
	Name string

	// Doc is the analyzer's one-paragraph documentation.
	Doc string

	// FactTypes lists prototype values (pointers to structs) of every
	// Fact type the analyzer exports. Analyzers with an empty list are
	// purely intra-package; analyzers with facts see their dependency
	// packages' facts through Pass.ImportObjectFact.
	FactTypes []Fact

	// Run applies the analyzer to one type-checked package.
	Run func(*Pass) error
}

// A Pass presents one type-checked package to an Analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Facts is the cross-package fact store: dependency facts merged by
	// the driver, plus whatever this pass exports. Nil means the driver
	// does not support facts (fact calls then no-op / miss).
	Facts *FactStore

	// report receives each diagnostic; installed by the driver.
	report func(Diagnostic)
}

// A TextEdit replaces [Pos, End) with NewText. Pos == End inserts.
type TextEdit struct {
	Pos     token.Pos
	End     token.Pos
	NewText []byte
}

// A SuggestedFix is one self-contained mechanical remedy for a
// diagnostic; the vettool's -fix mode applies the first fix of each
// diagnostic.
type SuggestedFix struct {
	Message   string
	TextEdits []TextEdit
}

// A Diagnostic is one finding, anchored at a position.
type Diagnostic struct {
	Pos            token.Pos
	Category       string // analyzer name
	Message        string
	SuggestedFixes []SuggestedFix
}

// NewPass assembles a Pass; drivers (unitchecker, analysistest) use it.
func NewPass(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, report func(Diagnostic)) *Pass {
	return &Pass{Analyzer: a, Fset: fset, Files: files, Pkg: pkg, TypesInfo: info, report: report}
}

// ExportObjectFact attaches fact to obj for downstream packages. The
// object must be a package-level function, method or variable of the
// package under analysis (facts on other packages' objects would never
// be seen by anyone: dependencies are already analyzed).
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	if p.Facts == nil {
		return
	}
	key := FactKey(obj)
	if key == "" {
		return
	}
	p.Facts.put(p.Analyzer.Name, key, fact)
}

// ImportObjectFact copies the fact of this pass's analyzer attached to
// obj into *fact (a pointer to the matching Fact struct), reporting
// whether one exists. Facts exported earlier in the same pass are
// visible too.
func (p *Pass) ImportObjectFact(obj types.Object, fact Fact) bool {
	if p.Facts == nil {
		return false
	}
	key := FactKey(obj)
	if key == "" {
		return false
	}
	f, ok := p.Facts.get(p.Analyzer.Name, key)
	if !ok {
		return false
	}
	src := reflect.ValueOf(f)
	dst := reflect.ValueOf(fact)
	if src.Type() != dst.Type() {
		return false
	}
	dst.Elem().Set(src.Elem())
	return true
}

// Report emits d unless it is suppressed by the analyzer's directive.
func (p *Pass) Report(d Diagnostic) {
	if d.Category == "" {
		d.Category = p.Analyzer.Name
	}
	if p.suppressed(d.Pos) {
		return
	}
	p.report(d)
}

// Reportf emits a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Directive returns the suppression directive for the pass's analyzer,
// e.g. "//biscuitvet:walltime-ok".
func (p *Pass) Directive() string {
	return "//biscuitvet:" + p.Analyzer.Name + "-ok"
}

// suppressed reports whether a suppression covers pos: the legacy
// "<name>-ok" directive or a reasoned "ignore <name>: why" directive on
// the same source line, on the line immediately above, or anywhere in
// the file header (comments before the package clause — whole-file
// waiver, used e.g. by host-side CLIs that legitimately read the wall
// clock).
func (p *Pass) suppressed(pos token.Pos) bool {
	f := p.FileFor(pos)
	if f == nil {
		return false
	}
	directive := p.Directive()
	line := p.Fset.Position(pos).Line
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.Contains(c.Text, directive) && !ignoreCovers(c.Text, p.Analyzer.Name) {
				continue
			}
			cline := p.Fset.Position(c.Pos()).Line
			if cline == line || cline == line-1 {
				return true
			}
			if c.End() <= f.Package { // file-header waiver
				return true
			}
		}
	}
	return false
}

// IgnorePrefix is the reasoned suppression directive:
// //biscuitvet:ignore <analyzer>: <reason>. The reason is mandatory —
// a reasonless ignore suppresses nothing and is itself flagged by the
// driver (CheckIgnoreDirectives), so every waiver in the tree documents
// why the invariant does not apply.
const IgnorePrefix = "//biscuitvet:ignore"

// parseIgnore splits an ignore directive into its analyzer name and
// reason. ok is false when text is not an ignore directive at all. Like
// all Go directives, the comment must start with the directive —
// mentioning //biscuitvet:ignore in prose does not trigger it.
func parseIgnore(text string) (name, reason string, ok bool) {
	if !strings.HasPrefix(text, IgnorePrefix) {
		return "", "", false
	}
	rest := strings.TrimSpace(text[len(IgnorePrefix):])
	name, reason, found := strings.Cut(rest, ":")
	if !found {
		return strings.TrimSpace(name), "", true
	}
	return strings.TrimSpace(name), strings.TrimSpace(reason), true
}

// ignoreCovers reports whether text is a well-formed (reasoned) ignore
// directive naming the analyzer.
func ignoreCovers(text, analyzer string) bool {
	name, reason, ok := parseIgnore(text)
	return ok && name == analyzer && reason != ""
}

// CheckIgnoreDirectives scans every comment of files for ignore
// directives missing their reason string (or analyzer name) and returns
// one diagnostic per offender. The driver runs this alongside the
// analyzer suite so CI fails on undocumented waivers.
func CheckIgnoreDirectives(files []*ast.File) []Diagnostic {
	var diags []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				name, reason, ok := parseIgnore(c.Text)
				if !ok {
					continue
				}
				switch {
				case name == "":
					diags = append(diags, Diagnostic{
						Pos:      c.Pos(),
						Category: "ignore",
						Message:  "biscuitvet:ignore directive names no analyzer (want //biscuitvet:ignore <analyzer>: <reason>)",
					})
				case reason == "":
					diags = append(diags, Diagnostic{
						Pos:      c.Pos(),
						Category: "ignore",
						Message:  fmt.Sprintf("biscuitvet:ignore %s lacks a reason string (want //biscuitvet:ignore %s: <reason>)", name, name),
					})
				}
			}
		}
	}
	return diags
}

// FileFor returns the syntax tree containing pos, or nil.
func (p *Pass) FileFor(pos token.Pos) *ast.File {
	for _, f := range p.Files {
		if f.FileStart <= pos && pos <= f.FileEnd {
			return f
		}
	}
	return nil
}

// InTestFile reports whether pos lies in a _test.go file.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// PkgPath returns the package's import path with any test-variant
// suffix removed: go vet analyzes "p [p.test]" variants whose Path()
// carries the bracketed suffix, but invariants are keyed on the
// canonical path.
func PkgPath(pkg *types.Package) string {
	path := pkg.Path()
	if i := strings.IndexByte(path, ' '); i >= 0 {
		path = path[:i]
	}
	return path
}

// ImportsPath reports whether any of the files directly imports path
// (including blank imports). Import specs are consulted syntactically
// so the answer is independent of how the type checker prunes unused
// imports.
func ImportsPath(files []*ast.File, path string) bool {
	quoted := `"` + path + `"`
	for _, f := range files {
		for _, imp := range f.Imports {
			if imp.Path.Value == quoted {
				return true
			}
		}
	}
	return false
}

// FuncFor resolves the called function object of a call-like selector
// or identifier expression, or nil. It sees through parentheses and
// generic instantiation.
func FuncFor(info *types.Info, fun ast.Expr) *types.Func {
	switch e := ast.Unparen(fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[e].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[e.Sel].(*types.Func)
		return fn
	case *ast.IndexExpr:
		return FuncFor(info, e.X)
	case *ast.IndexListExpr:
		return FuncFor(info, e.X)
	}
	return nil
}

// IsPkgFunc reports whether fn is a package-level function (no
// receiver) of the package with import path pkgPath.
func IsPkgFunc(fn *types.Func, pkgPath string) bool {
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// ShortPos renders pos as "file:line" with the bare file name, the form
// diagnostics use inside why-chains.
func (p *Pass) ShortPos(pos token.Pos) string {
	position := p.Fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(position.Filename), position.Line)
}

// PrettyName renders a function for diagnostics: "sim.Env.After",
// "helpers.Blocker".
func PrettyName(fn *types.Func) string {
	pkg := ""
	if fn.Pkg() != nil {
		pkg = filepath.Base(PkgPath(fn.Pkg())) + "."
	}
	if recv := ReceiverTypeName(fn); recv != "" {
		return pkg + recv + "." + fn.Name()
	}
	return pkg + fn.Name()
}

// HasContextParam reports whether ft declares a *core.Context parameter
// (seen through the public biscuit.Context alias): the SSDlet /
// device-function signature, which is what makes a function device
// code.
func HasContextParam(info *types.Info, ft *ast.FuncType) bool {
	if ft.Params == nil {
		return false
	}
	for _, field := range ft.Params.List {
		if IsContextPtr(info.TypeOf(field.Type)) {
			return true
		}
	}
	return false
}

// IsContextPtr reports whether t is *biscuit/internal/core.Context.
func IsContextPtr(t types.Type) bool {
	ptr, ok := types.Unalias(t).(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := types.Unalias(ptr.Elem()).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil &&
		PkgPath(obj.Pkg()) == "biscuit/internal/core"
}
