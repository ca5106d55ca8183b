package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// activations pairs each slab function with its scalar reference and the
// standard-library function its accuracy is measured against.
var activations = []struct {
	name string
	slab func(dst, src []float64)
	ref  func(float64) float64
	std  func(float64) float64
}{
	{"exp", Exp, expGo, math.Exp},
	{"sigmoid", Sigmoid, sigmoidGo, func(x float64) float64 { return 1 / (1 + math.Exp(-x)) }},
	{"tanh", Tanh, tanhGo, math.Tanh},
}

// activationEdges are the inputs where the algorithm changes regime: the
// exp overflow and underflow edges, the first subnormal result, where
// sigmoid's exp(−x) overflows or its sum rounds to 1, where tanh rounds to
// ±1 and where its exp(2|x|) overflows, and the range-reduction
// boundaries around ±ln2/2.
var activationEdges = []float64{
	expMax, expMin, -708.3964185322641, -709.0895657128241, -744.44007192138122,
	-expMax, -expMin, 36.7368005696771, -36.7368005696771, 37.42994775023705,
	19.061547465398498, -19.061547465398498, 354.891356446692, -354.891356446692,
	0.34657359027997264, -0.34657359027997264, 0.5493061443340549, -0.5493061443340549,
	1, -1, 0.5, -0.5,
}

// activationInputs returns the inputs every path must agree on: ±0,
// subnormal and tiny inputs, every edge above with its neighbours up to
// three ulps away, ±MaxFloat64, ±Inf, two NaNs, a dense sweep over
// [−50, 50] and random values over the whole finite range of exp.
func activationInputs() []float64 {
	xs := []float64{
		0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-310, -2.5e-308, 1e-200, -1e-17,
		math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1), testNaN, math.NaN(),
	}
	for _, e := range activationEdges {
		lo, hi := e, e
		xs = append(xs, e)
		for i := 0; i < 3; i++ {
			lo, hi = math.Nextafter(lo, math.Inf(-1)), math.Nextafter(hi, math.Inf(1))
			xs = append(xs, lo, hi)
		}
	}
	for x := -50.0; x <= 50; x += 1.0 / 128 {
		xs = append(xs, x, x+1.0/1024/3)
	}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 20000; i++ {
		xs = append(xs, 760*(2*rng.Float64()-1), 4*rng.NormFloat64())
	}
	return xs
}

// TestActivationsMatchReference pins the activation contract: on every
// path, Exp, Sigmoid and Tanh give the Float64bits of the scalar reference
// for every input (NaN compared by its bits).
func TestActivationsMatchReference(t *testing.T) {
	xs := activationInputs()
	kernelPaths(t, func(t *testing.T) {
		t.Logf("%s: activation body %s", t.Name(), activationBody())
		got := make([]float64, len(xs))
		for _, a := range activations {
			a.slab(got, xs)
			for i, x := range xs {
				if want := a.ref(x); math.Float64bits(got[i]) != math.Float64bits(want) {
					t.Fatalf("%s(%v [%#016x]) = %v [%#016x], want %v [%#016x]", a.name,
						x, math.Float64bits(x), got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
				}
			}
		}
	})
}

// TestActivationBounds drives every slab length up to 70 at unaligned
// offsets, into a separate dst and in place: each element must match the
// reference and no guard cell around dst may be written.
func TestActivationBounds(t *testing.T) {
	kernelPaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(23))
		const guard = 12345.5
		for _, a := range activations {
			for n := 0; n <= 70; n++ {
				for off := 0; off < 3; off++ {
					src := make([]float64, n)
					for i := range src {
						src[i] = 30 * rng.NormFloat64()
					}
					buf := make([]float64, off+n+9)
					for i := range buf {
						buf[i] = guard
					}
					dst := buf[off : off+n]
					a.slab(dst, src)
					checkSlab(t, a.name, "dst", buf, off, src, a.ref, guard)
					copy(dst, src)
					a.slab(dst, dst)
					checkSlab(t, a.name, "in place", buf, off, src, a.ref, guard)
				}
			}
		}
	})
}

func checkSlab(t *testing.T, name, mode string, buf []float64, off int, src []float64, ref func(float64) float64, guard float64) {
	t.Helper()
	for i, v := range buf {
		want := guard
		if j := i - off; j >= 0 && j < len(src) {
			want = ref(src[j])
		}
		if math.Float64bits(v) != math.Float64bits(want) {
			t.Fatalf("%s %s n=%d off=%d: buf[%d] = %v, want %v", name, mode, len(src), off, i, v, want)
		}
	}
}

// ulps is the distance between a and b in units in the last place: the
// number of float64 values between them, or MaxInt64 when they differ in
// sign or either is not finite (equal values are 0 apart).
func ulps(a, b float64) int64 {
	if a == b {
		return 0
	}
	if math.Signbit(a) != math.Signbit(b) || math.IsInf(a, 0) || math.IsInf(b, 0) || a != a || b != b {
		return math.MaxInt64
	}
	d := int64(math.Float64bits(a)) - int64(math.Float64bits(b))
	if d < 0 {
		d = -d
	}
	return d
}

// TestActivationAccuracy bounds the reference against the standard
// library, which rounds within one ulp of the true value: Exp within 2 ulps
// of math.Exp over [−700, 700] and within 1 ulp in the subnormal range
// (not near the overflow edge: amd64's math.Exp returns +Inf from about
// x = 709.44 on, below the true edge at 709.78),
// Sigmoid within 3 ulps of 1/(1+math.Exp(−x)), and Tanh within 3 ulps of
// math.Tanh for |x| ≥ 0.55, where 1 − 2/(e+1) cannot cancel, and within
// 2⁻⁵² absolute error below.
func TestActivationAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var xs []float64
	for x := -700.0; x <= 700; x += 1.0 / 64 {
		xs = append(xs, x+rng.Float64()/64)
	}
	for i := 0; i < 100000; i++ {
		xs = append(xs, 8*rng.NormFloat64())
	}
	var subnormal []float64 // inputs whose exp is subnormal
	for i := 0; i < 20000; i++ {
		subnormal = append(subnormal, -708.4-36.7*rng.Float64())
	}
	worst := map[string]float64{}
	for _, a := range activations {
		in := xs
		if a.name == "exp" {
			in = append(subnormal, xs...)
		}
		for _, x := range in {
			got, want := a.ref(x), a.std(x)
			limit := int64(3)
			switch {
			case a.name == "exp" && x < -708.3964185322641:
				limit = 1
			case a.name == "exp":
				limit = 2
			case a.name == "tanh" && math.Abs(x) < 0.55:
				if d := math.Abs(got - want); d > 0x1p-52 {
					t.Fatalf("tanh(%v) = %v, want %v: absolute error %g > 2⁻⁵²", x, got, want, d)
				}
				continue
			}
			d := ulps(got, want)
			if d > limit {
				t.Fatalf("%s(%v) = %v, want %v: %d ulps apart, bound %d", a.name, x, got, want, d, limit)
			}
			worst[a.name] = math.Max(worst[a.name], float64(d))
		}
	}
	t.Logf("worst ulps against the standard library: %v", worst)
}

// BenchmarkActivations reports ns per element of each slab function on the
// AVX-512 body and the pure-Go reference.
func BenchmarkActivations(b *testing.B) {
	defer func(saved simdLevel) { simd = saved }(simd)
	rng := rand.New(rand.NewSource(31))
	for _, path := range []struct {
		name  string
		level simdLevel
	}{{"avx512", simdAVX512}, {"generic", simdGeneric}} {
		for _, a := range activations {
			for _, n := range []int{64, 2048, 4096} {
				src, dst := make([]float64, n), make([]float64, n)
				for i := range src {
					src[i] = 4 * rng.NormFloat64()
				}
				b.Run(fmt.Sprintf("%s/%s/%d", path.name, a.name, n), func(b *testing.B) {
					if path.level > detectSIMD() {
						b.Skipf("CPU or OS lacks %s", path.name)
					}
					simd = path.level
					for i := 0; i < b.N; i++ {
						a.slab(dst, src)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/elem")
				})
			}
		}
	}
}

// activationBody names the body activate runs at the current simd level:
// AVX hosts run the pure-Go reference.
func activationBody() string {
	if simd == simdAVX512 {
		return "avx512"
	}
	return "generic"
}
