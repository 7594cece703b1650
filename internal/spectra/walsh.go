// Package spectra implements Walsh–Hadamard spectral analysis of Boolean
// functions. The paper's related work uses Walsh spectra as matching
// signatures [Clarke et al., DAC'93]; here the spectrum serves two roles:
//
//   - WalshSignature: an NPN-invariant spectral signature (the multiset of
//     absolute spectral coefficients grouped by Hamming weight of the
//     frequency index), offered as an optional extension signature.
//   - Krawtchouk-based distance enumeration: the MacWilliams identity turns
//     the pair-distance distribution of a minterm set into a weighted sum of
//     squared spectral coefficients, giving an O(n·2^n) alternative to the
//     quadratic pair enumeration used by the naive OSDV computation.
package spectra

import (
	"math/bits"
	"sort"

	"repro/internal/tt"
)

// WHT performs the in-place Walsh–Hadamard transform of a, whose length must
// be a power of two: a'[s] = Σ_x a[x]·(-1)^{popcount(s&x)}.
func WHT(a []int64) {
	n := len(a)
	if n&(n-1) != 0 {
		panic("spectra: WHT length must be a power of two")
	}
	for h := 1; h < n; h <<= 1 {
		for i := 0; i < n; i += h << 1 {
			for j := i; j < i+h; j++ {
				x, y := a[j], a[j+h]
				a[j], a[j+h] = x+y, x-y
			}
		}
	}
}

// Spectrum returns the Walsh spectrum of the ±1-encoded function:
// S[s] = Σ_x (-1)^{f(x)} (-1)^{s·x}.
func Spectrum(f *tt.TT) []int64 {
	a := make([]int64, f.NumBits())
	for x := range a {
		if f.Get(x) {
			a[x] = -1
		} else {
			a[x] = 1
		}
	}
	WHT(a)
	return a
}

// WeightMoments groups squared spectral coefficients by the Hamming weight
// of the frequency index: M[w] = Σ_{wt(s)=w} S[s]². The result is invariant
// under input permutation and input negation, and under output negation when
// the spectrum is ±1-encoded (coefficients only change sign).
func WeightMoments(n int, spectrum []int64) []int64 {
	m := make([]int64, n+1)
	for s, c := range spectrum {
		m[bits.OnesCount(uint(s))] += c * c
	}
	return m
}

// AbsWeightDistribution returns, per Hamming weight w of the frequency
// index, the sorted multiset of absolute spectral coefficients. Stronger
// than WeightMoments but more expensive to compare; exposed for the
// spectral-signature extension experiments.
func AbsWeightDistribution(n int, spectrum []int64) [][]int64 {
	d := make([][]int64, n+1)
	for s, c := range spectrum {
		if c < 0 {
			c = -c
		}
		w := bits.OnesCount(uint(s))
		d[w] = append(d[w], c)
	}
	for _, row := range d {
		sort.Slice(row, func(i, j int) bool { return row[i] < row[j] })
	}
	return d
}
