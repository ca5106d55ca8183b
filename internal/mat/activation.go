package mat

import "math"

// The activation slabs of the package comment. expGo, sigmoidGo and tanhGo
// are the reference; activateAVX512 (activation_amd64.s) runs the same
// operation sequence eight lanes at a time.
//
// exp(x), for expMin ≤ x ≤ expMax:
//
//	t = x·log2e + 1.5·2⁵²            round-to-nearest puts k in t's low bits
//	k = t − 1.5·2⁵²                  exact, an integer in [−1075, 1024]
//	r = (x − k·ln2Hi) − k·ln2Lo      |r| ≤ ln2/2; k·ln2Hi is exact
//	p = 1 + r(1 + r(1/2! + … + r/13!))   Horner, highest power first
//	exp(x) = (p·2^⌊k/2⌋)·2^(k−⌊k/2⌋)
//
// The first scaling multiply is exact (both halves of k keep the product
// normal); the second rounds once, into the subnormals below 2⁻¹⁰²² and
// to +Inf past the overflow edge. x > expMax gives +Inf, x < expMin gives
// +0 and NaN returns x itself.

const (
	expMax = 7.09782712893383973096e+02  // largest x with a finite exp(x)
	expMin = -7.45133219101941108420e+02 // below it exp(x) rounds to +0
	expRnd = 1.5 * (1 << 52)             // adding it rounds to an integer
	ln2Hi  = 6.93147180369123816490e-01  // ln2's high bits, 21 trailing zeros
	ln2Lo  = 1.90821492927058770002e-10  // ln2 − ln2Hi
)

// expPoly holds 1/13!, 1/12!, …, 1/2!, 1, 1: the Horner coefficients of
// the degree-13 Taylor polynomial, highest power first.
var expPoly = [14]float64{
	1.0 / 6227020800, 1.0 / 479001600, 1.0 / 39916800, 1.0 / 3628800,
	1.0 / 362880, 1.0 / 40320, 1.0 / 5040, 1.0 / 720, 1.0 / 120, 1.0 / 24,
	1.0 / 6, 1.0 / 2, 1, 1,
}

// Exp sets dst[i] = exp(src[i]) for every i < len(src). dst must hold at
// least len(src) elements and may be src itself, but must not otherwise
// overlap it.
func Exp(dst, src []float64) { activate(dst, src, actExp) }

// Sigmoid sets dst[i] = 1/(1 + exp(−src[i])) for every i < len(src), with
// the aliasing rules of Exp.
func Sigmoid(dst, src []float64) { activate(dst, src, actSigmoid) }

// Tanh sets dst[i] = tanh(src[i]) for every i < len(src), with the
// aliasing rules of Exp.
func Tanh(dst, src []float64) { activate(dst, src, actTanh) }

// actKind selects the activation an activate call computes.
type actKind int

const (
	actExp actKind = iota
	actSigmoid
	actTanh
)

func activate(dst, src []float64, kind actKind) {
	n := len(src)
	if n == 0 {
		return
	}
	dst = dst[:n]
	if simd == simdAVX512 {
		activateAVX512(&dst[0], &src[0], n, kind)
		return
	}
	switch kind {
	case actExp:
		for i, x := range src {
			dst[i] = expGo(x)
		}
	case actSigmoid:
		for i, x := range src {
			dst[i] = sigmoidGo(x)
		}
	default:
		for i, x := range src {
			dst[i] = tanhGo(x)
		}
	}
}

// expGo is the reference exp; see the file comment for the algorithm.
// Every product is converted to float64 before it is added, which forbids
// fusing the pair into one FMA.
func expGo(x float64) float64 {
	switch {
	case x != x:
		return x
	case x > expMax:
		return math.Inf(1)
	case x < expMin:
		return 0
	}
	t := float64(x*math.Log2E) + expRnd
	k := t - expRnd
	r := float64(x-float64(k*ln2Hi)) - float64(k*ln2Lo)
	p := expPoly[0]
	for _, c := range expPoly[1:] {
		p = float64(p*r) + c
	}
	ki := int64(math.Float64bits(t) - math.Float64bits(expRnd))
	k1 := ki >> 1
	return float64(p*pow2(k1)) * pow2(ki-k1)
}

// pow2 returns 2^k for a normal exponent, −1022 ≤ k ≤ 1023.
func pow2(k int64) float64 { return math.Float64frombits(uint64(k+1023) << 52) }

// sigmoidGo is the reference sigmoid.
func sigmoidGo(x float64) float64 { return 1 / (1 + expGo(-x)) }

// tanhGo is the reference tanh.
func tanhGo(x float64) float64 {
	a := math.Abs(x)
	return math.Copysign(1-2/(expGo(a+a)+1), x)
}
