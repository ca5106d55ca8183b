// Package hmbad exercises hostmath. The tests load it under the spoofed
// import path repro/internal/nn, a determinism-critical package.
package hmbad

import "math"

func banned(x float64) float64 {
	a := math.Exp(x)   // want `math.Exp in determinism-critical package`
	b := math.Expm1(x) // want `math.Expm1 in determinism-critical package`
	c := math.Tanh(x)  // want `math.Tanh in determinism-critical package`
	d := math.Log(x)   // want `math.Log in determinism-critical package`
	e := math.Log1p(x) // want `math.Log1p in determinism-critical package`
	f := math.Sinh(x)  // want `math.Sinh in determinism-critical package`
	g := math.Cosh(x)  // want `math.Cosh in determinism-critical package`
	return a + b + c + d + e + f + g
}

// functionValue passes a banned function without calling it.
func functionValue(xs []float64) {
	apply(xs, math.Tanh) // want `math.Tanh in determinism-critical package`
}

func pow(x float64, n int) float64 {
	a := math.Pow(x, float64(n)) // want `math.Pow without a constant integer exponent`
	b := math.Pow(x, 0.5)        // want `math.Pow without a constant integer exponent`
	const three = 3
	c := math.Pow(x, 2) + math.Pow(x, three) + math.Pow(x, -1) + math.Pow(x, 4.0)
	return a + b + c
}

// allowed uses the functions that are correctly rounded on every host.
func allowed(x, y, z float64) float64 {
	return math.Sqrt(x) + math.FMA(x, y, z) + math.Abs(x) + math.Copysign(x, y) + math.Max(x, y)
}

// reportOnly demonstrates the escape hatch for a value that feeds no
// pinned output.
func reportOnly(p float64) float64 {
	//apslint:allow hostmath fixture demonstrates the line-above escape hatch
	return -math.Log(p)
}

func apply(xs []float64, f func(float64) float64) {
	for i, x := range xs {
		xs[i] = f(x)
	}
}
