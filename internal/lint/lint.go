// Package lint implements apslint, the repo-invariant static-analysis
// suite. Six analyzers turn the invariants every subsystem leans on into
// compile-time properties:
//
//   - detpure: determinism-critical packages must not read wall clocks,
//     the global math/rand stream, or reduce over map iteration order.
//   - fpcomplete: every struct with a Fingerprint() method must hash each
//     exported field or annotate it `// fp:ignore` — the contract that
//     keeps content-addressed caching sound.
//   - budgetguard: kernel/pipeline packages must route goroutine fan-out
//     through the internal/sweep worker budget, never raw `go func`.
//   - fixedorder: concurrent fan-ins must not accumulate floating-point
//     results in completion order.
//   - viewsafe: dataset.Sample's feature columns may be read-only views
//     into mmap-ed artifact pages; element writes through them must copy
//     the column first.
//   - hostmath: determinism-critical packages must not use the math
//     functions whose bits depend on the host (math.Exp, Tanh, Log and
//     kin, math.Pow without a constant integer exponent); the mat slab
//     functions Exp, Sigmoid and Tanh replace them.
//
// The framework deliberately mirrors the golang.org/x/tools/go/analysis
// API shape (Analyzer/Pass/Diagnostic) so the suite can be rebased onto
// the real multichecker if the dependency ever becomes available; it is
// built on the standard library alone so `go run ./cmd/apslint ./...`
// works offline in a bare module.
//
// # Escape hatches
//
// A finding is suppressed by a directive on the flagged line or the line
// directly above it:
//
//	//apslint:allow <analyzer> <reason>
//
// The reason is mandatory: exemptions document themselves or fail the
// build. Separately, fpcomplete accepts a `// fp:ignore <reason>` comment
// on a struct field to declare the field deliberately unhashed.
// Determinism policy exempts repro/internal/serve, cmd/*, examples/*, and
// all _test.go files wholesale; fpcomplete has no package exemptions.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// An Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and allow directives.
	Name string
	// Doc is the one-paragraph description `apslint -list` prints.
	Doc string
	// Run reports the analyzer's findings for one package via pass.Reportf.
	Run func(*Pass) error
}

// A Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	// PkgPath is the import path policy decisions key on. Fixture tests
	// spoof it to exercise the package policy without real packages.
	PkgPath   string
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	report func(token.Pos, string)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(pos, fmt.Sprintf(format, args...))
}

// A Diagnostic is one finding, resolved to a file position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// All is the full analyzer suite in the order diagnostics are grouped.
var All = []*Analyzer{Detpure, Fpcomplete, Budgetguard, Fixedorder, Viewsafe, Hostmath}

// ByName returns the analyzer with the given name, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// detCritical lists the packages whose outputs must be byte-identical at
// any worker count — everything that feeds campaign bytes, trained
// weights, reports, or cached artifacts. repro/internal/serve, cmd/*, and
// examples/* are deliberately absent: serving latency code is allowed to
// read clocks, and binaries own their wall-clock UX.
var detCritical = map[string]bool{
	"repro/internal/artifact":    true,
	"repro/internal/attack":      true,
	"repro/internal/controller":  true,
	"repro/internal/dataset":     true,
	"repro/internal/eval":        true,
	"repro/internal/experiments": true,
	"repro/internal/mat":         true,
	"repro/internal/mat32":       true,
	"repro/internal/metrics":     true,
	"repro/internal/mmapio":      true,
	"repro/internal/monitor":     true,
	"repro/internal/nn":          true,
	"repro/internal/ode":         true,
	"repro/internal/patient":     true,
	"repro/internal/sim":         true,
	"repro/internal/stl":         true,
	"repro/internal/sweep":       true,
}

// DeterminismCritical reports whether the determinism analyzers (detpure,
// budgetguard, fixedorder, hostmath) apply to the package. fpcomplete ignores this
// policy: fingerprint completeness has no exempt packages.
func DeterminismCritical(pkgPath string) bool {
	return detCritical[pkgPath]
}

// allowDirective is one parsed //apslint:allow comment.
type allowDirective struct {
	file     string
	line     int
	analyzer string
	reason   string
}

const allowPrefix = "//apslint:"

// parseDirectives extracts every apslint directive from the package,
// reporting malformed ones (wrong verb, unknown analyzer, missing reason)
// as non-suppressible diagnostics under the pseudo-analyzer "apslint".
func parseDirectives(pkg *Package) (allows []allowDirective, malformed []Diagnostic) {
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, allowPrefix) {
					continue
				}
				pos := pkg.Fset.Position(c.Slash)
				bad := func(format string, args ...any) {
					malformed = append(malformed, Diagnostic{
						Pos:      pos,
						Analyzer: "apslint",
						Message:  fmt.Sprintf(format, args...),
					})
				}
				rest := strings.TrimPrefix(c.Text, allowPrefix)
				fields := strings.Fields(rest)
				if len(fields) == 0 || fields[0] != "allow" {
					bad("unknown apslint directive %q (only //apslint:allow <analyzer> <reason> is defined)", c.Text)
					continue
				}
				if len(fields) < 2 || ByName(fields[1]) == nil {
					names := make([]string, len(All))
					for i, a := range All {
						names[i] = a.Name
					}
					bad("apslint:allow needs a known analyzer (one of %s)", strings.Join(names, ", "))
					continue
				}
				if len(fields) < 3 {
					bad("apslint:allow %s needs a reason: exemptions must document themselves", fields[1])
					continue
				}
				allows = append(allows, allowDirective{
					file:     pos.Filename,
					line:     pos.Line,
					analyzer: fields[1],
					reason:   strings.Join(fields[2:], " "),
				})
			}
		}
	}
	return allows, malformed
}

// suppressed reports whether an allow directive for the diagnostic's
// analyzer sits on the flagged line or the line directly above it.
func suppressed(d Diagnostic, allows []allowDirective) bool {
	for _, a := range allows {
		if a.analyzer != d.Analyzer || a.file != d.Pos.Filename {
			continue
		}
		if a.line == d.Pos.Line || a.line == d.Pos.Line-1 {
			return true
		}
	}
	return false
}

// RunPackage runs the analyzers over one loaded package and returns the
// surviving diagnostics: findings without a matching allow directive, plus
// any malformed directives, sorted by position.
func RunPackage(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	allows, diags := parseDirectives(pkg)
	for _, a := range analyzers {
		var found []Diagnostic
		pass := &Pass{
			Analyzer:  a,
			PkgPath:   pkg.Path,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
			report: func(pos token.Pos, msg string) {
				found = append(found, Diagnostic{
					Pos:      pkg.Fset.Position(pos),
					Analyzer: a.Name,
					Message:  msg,
				})
			},
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.Path, err)
		}
		for _, d := range found {
			if !suppressed(d, allows) {
				diags = append(diags, d)
			}
		}
	}
	sortDiagnostics(diags)
	return diags, nil
}

// RunPackages runs the analyzers over every package.
func RunPackages(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		ds, err := RunPackage(pkg, analyzers)
		if err != nil {
			return nil, err
		}
		diags = append(diags, ds...)
	}
	sortDiagnostics(diags)
	return diags, nil
}

func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Message < b.Message
	})
}

// fpIgnoreRe matches the `// fp:ignore` field annotation, optionally
// followed by a reason.
var fpIgnoreRe = regexp.MustCompile(`\bfp:ignore\b`)

// hasFPIgnore reports whether any comment in the group carries fp:ignore.
func hasFPIgnore(groups ...*ast.CommentGroup) bool {
	for _, g := range groups {
		if g == nil {
			continue
		}
		for _, c := range g.List {
			if fpIgnoreRe.MatchString(c.Text) {
				return true
			}
		}
	}
	return false
}

// unparen strips any number of enclosing parentheses. (ast.Unparen needs
// Go 1.22; the module targets 1.21.)
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// calleeFunc resolves the called function object of a call expression, or
// nil when the callee is not a declared function/method (function values,
// conversions, builtins).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// rootObject walks to the base identifier of an lvalue chain
// (x, x.F, x[i], (*x).F …) and resolves its object, or nil.
func rootObject(info *types.Info, expr ast.Expr) types.Object {
	for {
		switch e := unparen(expr).(type) {
		case *ast.Ident:
			return info.ObjectOf(e)
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		default:
			return nil
		}
	}
}

// declaredOutside reports whether obj's declaration lies outside the
// [from, to] node span — i.e. the object outlives the loop or closure that
// writes it.
func declaredOutside(obj types.Object, from, to token.Pos) bool {
	if obj == nil {
		return false
	}
	return obj.Pos() < from || obj.Pos() > to
}

// enclosingFuncBody returns the body of the innermost function declaration
// or literal containing pos, or nil.
func enclosingFuncBody(file *ast.File, pos token.Pos) *ast.BlockStmt {
	var best *ast.BlockStmt
	ast.Inspect(file, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		var body *ast.BlockStmt
		switch fn := n.(type) {
		case *ast.FuncDecl:
			body = fn.Body
		case *ast.FuncLit:
			body = fn.Body
		default:
			return true
		}
		if body != nil && body.Pos() <= pos && pos <= body.End() {
			best = body // keep descending: innermost wins
		}
		return true
	})
	return best
}
