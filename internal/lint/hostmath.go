package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
)

// Hostmath forbids the math functions whose bits depend on the host in
// determinism-critical packages.
var Hostmath = &Analyzer{
	Name: "hostmath",
	Doc: `forbid host-dependent math functions in determinism-critical packages

math.Exp, Expm1, Tanh, Log, Log1p, Sinh and Cosh are not correctly rounded,
and their body depends on the host: on amd64 math.Exp runs an FMA body when
the CPU has FMA (math.Tanh, Sinh and Cosh call it), and other architectures
have their own assembly. The same input can then give different bits on two
machines, and so can trained weights and cached artifacts. math.Pow reaches
Exp and Log unless its exponent is an integer, so it is legal only with a
constant integer exponent. Use mat.Exp, mat.Sigmoid and mat.Tanh, whose
operation sequence is fixed. math.Sqrt and math.FMA are correctly rounded
on every host and stay legal. Every use is flagged, calls and function
values alike.`,
	Run: runHostmath,
}

// hostMathFuncs are the math functions banned outright.
var hostMathFuncs = map[string]bool{
	"Exp": true, "Expm1": true, "Tanh": true, "Log": true,
	"Log1p": true, "Sinh": true, "Cosh": true,
}

func runHostmath(pass *Pass) error {
	if !DeterminismCritical(pass.PkgPath) {
		return nil
	}
	for _, f := range pass.Files {
		// intPow holds the math.Pow identifiers called with a constant
		// integer exponent, the one legal use.
		intPow := make(map[*ast.Ident]bool)
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && len(call.Args) == 2 {
				if id := mathFuncIdent(pass.TypesInfo, call.Fun, "Pow"); id != nil && integerConstant(pass.TypesInfo, call.Args[1]) {
					intPow[id] = true
				}
			}
			return true
		})
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, _ := pass.TypesInfo.Uses[id].(*types.Func)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "math" {
				return true
			}
			switch {
			case hostMathFuncs[fn.Name()]:
				pass.Reportf(id.Pos(),
					"math.%s in determinism-critical package %s: its bits depend on the host's CPU and GOARCH; use mat.Exp, mat.Sigmoid or mat.Tanh",
					fn.Name(), pass.PkgPath)
			case fn.Name() == "Pow" && !intPow[id]:
				pass.Reportf(id.Pos(),
					"math.Pow without a constant integer exponent in determinism-critical package %s: a non-integer exponent goes through math.Exp and math.Log, whose bits depend on the host",
					pass.PkgPath)
			}
			return true
		})
	}
	return nil
}

// mathFuncIdent returns the identifier naming math.<name> in fun, or nil.
func mathFuncIdent(info *types.Info, fun ast.Expr, name string) *ast.Ident {
	var id *ast.Ident
	switch e := unparen(fun).(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "math" || fn.Name() != name {
		return nil
	}
	return id
}

// integerConstant reports whether e is a constant expression with an
// integer value.
func integerConstant(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil {
		return false
	}
	return constant.ToInt(tv.Value).Kind() == constant.Int
}
