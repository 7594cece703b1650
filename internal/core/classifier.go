// Package core implements the paper's NPN classifier (Algorithm 1).
//
// For each function the classifier computes a Mixed Signature Vector (MSV) —
// a configurable concatenation of the NPN-invariant signature vectors from
// internal/sig (OCV1, OCV2, OIV, OSV0/OSV1, OSDV0/OSDV1) — canonicalizes the
// output phase, and buckets functions by a hash of the serialized MSV. Two
// functions receive the same class exactly when their MSVs agree, which by
// Theorems 1–4 is a necessary condition for NPN equivalence: the classifier
// never separates NPN-equivalent functions, but may merge inequivalent ones
// whose signatures collide (measured in EXPERIMENTS.md against the exact
// classifier, reproducing Tables II and III).
//
// Output-phase canonicalization: signatures are invariant under input
// negation and permutation (PN) but not under output negation. For an
// unbalanced function the phase is normalized by satisfy count (complement
// when |f| > 2^(n-1)); for a balanced function both phases are serialized
// and the lexicographically smaller MSV is used, which subsumes the paper's
// rule of ordering the (OSV1, OSV0) pair (Theorems 3–4).
//
// Each function is measured once, in its own phase: ¬f has f's local
// sensitivities with the 0- and 1-minterm roles swapped, and its cofactor
// counts are the complements of f's, so the MSV of either phase is emitted
// from the one measurement. The emitter feeds a byte sink (KeyBytes and the
// balanced phase choice) or an FNV-1a fold (Hash), so hashing an unbalanced
// function never materializes its key.
package core

import (
	"encoding/binary"
	"fmt"

	"repro/internal/sig"
	"repro/internal/spectra"
	"repro/internal/tt"
)

// Config selects which signature vectors participate in the MSV.
type Config struct {
	OCV1 bool // 1-ary ordered cofactor vector
	OCV2 bool // 2-ary ordered cofactor vector
	OIV  bool // ordered influence vector
	OSV  bool // ordered 0-/1-sensitivity vectors
	OSDV bool // ordered 0-/1-sensitivity distance vectors

	// OSDVCombined additionally includes the all-minterms OSDV, whose
	// cross-polarity pairs are not derivable from OSDV0/OSDV1.
	OSDVCombined bool

	// Spectral additionally includes the Walsh weight-moment signature
	// (related-work extension; see internal/spectra).
	Spectral bool

	// OCVL, when ≥ 3, additionally includes the ℓ-ary ordered cofactor
	// vector of that order. All-ary cofactor vectors form a canonical form
	// (Abdollahi'08); a single higher order is a cheap step toward it.
	OCVL int

	// FastOSDV computes sensitivity-distance vectors via the spectral
	// (Krawtchouk) path instead of pair enumeration.
	FastOSDV bool

	// StrictKeys buckets by the full serialized MSV instead of its 64-bit
	// FNV hash, eliminating any possibility of hash collisions.
	StrictKeys bool
}

// ConfigAll enables every signature vector — the paper's "All" column and
// the configuration of the final classifier ("Ours" in Table III).
func ConfigAll() Config {
	return Config{OCV1: true, OCV2: true, OIV: true, OSV: true, OSDV: true}
}

// Enabled returns a short label of the enabled components, e.g.
// "OCV1+OSV".
func (c Config) Enabled() string {
	s := ""
	add := func(on bool, name string) {
		if on {
			if s != "" {
				s += "+"
			}
			s += name
		}
	}
	add(c.OCV1, "OCV1")
	add(c.OCV2, "OCV2")
	add(c.OIV, "OIV")
	add(c.OSV, "OSV")
	add(c.OSDV, "OSDV")
	add(c.Spectral, "SPEC")
	if c.OCVL >= 3 {
		add(true, fmt.Sprintf("OCV%d", c.OCVL))
	}
	if s == "" {
		s = "none"
	}
	return s
}

// Classifier computes MSV keys for functions of a fixed arity. It reuses
// scratch buffers and is not safe for concurrent use.
type Classifier struct {
	n     int
	cfg   Config
	depth int // sig point-vector depth the configuration needs; -1 for none
	eng   *sig.Engine

	// The MSV components of the last measured function, in its own output
	// phase: face vectors in classifier buffers, point vectors in the
	// engine, and the research-only components, which allocate.
	ones                  int
	ocv1, ocv2            []int
	pts                   *sig.Points
	ocvl                  []int
	osdv0, osdv1, osdvAll sig.SDV
	moments               []int64

	// Key buffers: a balanced function serializes both output phases.
	keyBuf, keyBuf2 []byte
}

// New returns a classifier for n-variable functions.
func New(n int, cfg Config) *Classifier {
	depth := -1
	switch {
	case cfg.OSDV && cfg.FastOSDV:
		depth = sig.PointsOSDV
	case cfg.OSV:
		depth = sig.PointsOSV
	case cfg.OIV:
		depth = sig.PointsOIV
	}
	return &Classifier{n: n, cfg: cfg, depth: depth, eng: sig.NewEngine(n)}
}

// KeyBytes returns the canonical serialized MSV of f. The returned slice is
// freshly allocated and owned by the caller.
func (c *Classifier) KeyBytes(f *tt.TT) []byte {
	var k []byte
	if neg, balanced := c.measure(f); balanced {
		k = c.balancedKey()
	} else {
		k = c.serialize(&c.keyBuf, neg)
	}
	return append([]byte(nil), k...)
}

// Hash returns the 64-bit FNV-1a hash of the canonical MSV, KeyBytes(f).
// An unbalanced function's components are folded into the hash as they are
// emitted; a balanced function serializes both phases to choose between
// them. It reuses the classifier's scratch and allocates nothing in steady
// state.
//
//npn:noalloc
func (c *Classifier) Hash(f *tt.TT) uint64 {
	neg, balanced := c.measure(f)
	if balanced {
		return fnv1a(c.balancedKey())
	}
	k := keySink{hash: true, h: fnvOffset}
	c.emit(&k, neg)
	return k.h
}

// balancedKey serializes both output phases of the measured function,
// whose output negation the satisfy count cannot resolve (Theorems 3–4),
// and returns the lexicographically smaller.
func (c *Classifier) balancedKey() []byte {
	k0 := c.serialize(&c.keyBuf, false)
	k1 := c.serialize(&c.keyBuf2, true)
	if lexLess(k1, k0) {
		return k1
	}
	return k0
}

// serialize emits the measured MSV in one output phase into *buf, reusing
// its capacity. The result aliases *buf.
func (c *Classifier) serialize(buf *[]byte, neg bool) []byte {
	k := keySink{buf: (*buf)[:0]}
	c.emit(&k, neg)
	*buf = k.buf
	return k.buf
}

// measure computes the enabled MSV components of f, in f's own output
// phase, into the classifier's scratch and reports the canonical phase:
// neg when the key is ¬f's (|f| > 2^(n-1)), balanced when the satisfy
// count cannot decide.
//
//npn:noalloc
func (c *Classifier) measure(f *tt.TT) (neg, balanced bool) {
	if f.NumVars() != c.n {
		panic("core: function arity does not match classifier")
	}
	cfg, e := &c.cfg, c.eng
	c.ones = f.CountOnes()
	if cfg.OCV1 {
		c.ocv1 = e.AppendOCV1(c.ocv1[:0], f)
	}
	if c.depth >= 0 {
		c.pts = e.PointVectors(f, c.depth)
	}
	if cfg.OCV2 {
		c.ocv2 = e.AppendOCV2(c.ocv2[:0], f)
	}
	c.measureExtensions(f)
	half := f.NumBits() / 2
	return c.ones > half, c.ones == half
}

// measureExtensions computes the components only research configurations
// enable — the ℓ-ary cofactor vector, the pair-enumerated and the
// all-minterm OSDV, and the Walsh weight moments. Unlike the rest of the
// MSV they allocate.
func (c *Classifier) measureExtensions(f *tt.TT) {
	cfg, e := &c.cfg, c.eng
	if c.ocvlOn() {
		c.ocvl = e.OCVL(f, cfg.OCVL)
	}
	if cfg.OSDV && !cfg.FastOSDV {
		c.osdv0, c.osdv1 = e.OSDV01(f)
	}
	if cfg.OSDV && cfg.OSDVCombined {
		if cfg.FastOSDV {
			c.osdvAll = e.OSDVFast(f)
		} else {
			c.osdvAll = e.OSDV(f)
		}
	}
	if cfg.Spectral {
		// The related-work spectral signature [Clarke'93]: the moments
		// Σ_{wt(s)=w} Ŝ(s)² of the ±1 spectrum, which output negation only
		// flips in sign, so they need no phase handling.
		c.moments = spectra.WeightMoments(c.n, spectra.Spectrum(f))
	}
}

// ocvlOn reports whether the ℓ-ary cofactor vector joins the MSV.
func (c *Classifier) ocvlOn() bool { return c.cfg.OCVL >= 3 && c.cfg.OCVL <= c.n }

// emit feeds the measured components to k in serialization order, for f's
// own output phase or, when neg is set, for ¬f's. The order is
// cheap-to-expensive so that staged refinement (ClassifyRefined) and the
// monolithic key agree on the lexicographic phase choice for balanced
// functions. ¬f swaps the 0- and 1-minterm point vectors and turns each
// cofactor count c over a face of s minterms into s−c, which reverses the
// sorted cofactor vectors.
//
//npn:noalloc
func (c *Classifier) emit(k *keySink, neg bool) {
	cfg := &c.cfg
	size := 1 << c.n
	ones := c.ones
	if neg {
		ones = size - ones
	}
	k.put(uint32(ones))
	if cfg.OCV1 {
		k.counts(c.ocv1, size>>1, neg)
	}
	if cfg.OIV {
		k.ints(c.pts.OIV)
	}
	if cfg.OSV {
		h0, h1 := c.pts.OSV0, c.pts.OSV1
		if neg {
			h0, h1 = h1, h0
		}
		k.ints(h0)
		k.ints(h1)
	}
	if cfg.OCV2 {
		k.counts(c.ocv2, size>>2, neg)
	}
	if c.ocvlOn() {
		k.counts(c.ocvl, size>>cfg.OCVL, neg)
	}
	if cfg.OSDV {
		d0, d1 := c.osdv0, c.osdv1
		if cfg.FastOSDV {
			d0, d1 = c.pts.OSDV0, c.pts.OSDV1
		}
		if neg {
			d0, d1 = d1, d0
		}
		k.sdv(d0)
		k.sdv(d1)
		if cfg.OSDVCombined {
			k.sdv(c.osdvAll)
		}
	}
	if cfg.Spectral {
		for _, m := range c.moments {
			k.put(uint32(m))
			k.put(uint32(m >> 32))
		}
	}
}

// keySink receives the MSV as a stream of uint32 components. The byte sink
// appends each component's little-endian bytes to buf, the serialized key;
// the hash sink folds the same bytes into h, their FNV-1a hash.
type keySink struct {
	hash bool
	h    uint64
	buf  []byte
}

func (k *keySink) put(v uint32) {
	if k.hash {
		k.h = fnvFold(k.h, v)
	} else {
		k.buf = binary.LittleEndian.AppendUint32(k.buf, v)
	}
}

func (k *keySink) ints(vs []int) {
	if !k.hash {
		for _, v := range vs {
			k.buf = binary.LittleEndian.AppendUint32(k.buf, uint32(v))
		}
		return
	}
	h := k.h
	for _, v := range vs {
		h = fnvFold(h, uint32(v))
	}
	k.h = h
}

// counts emits a sorted vector of cofactor counts over faces of size
// minterms, or with neg the complement's: size−v, reversed to stay sorted.
func (k *keySink) counts(vs []int, size int, neg bool) {
	if !neg {
		k.ints(vs)
		return
	}
	for i := len(vs) - 1; i >= 0; i-- {
		k.put(uint32(size - vs[i]))
	}
}

func (k *keySink) sdv(d sig.SDV) {
	for _, row := range d {
		k.ints(row)
	}
}

func lexLess(a, b []byte) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// FNV-1a parameters; fnvPrime4 is fnvPrime⁴ mod 2⁶⁴.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
	fnvPrime4 = (fnvPrime * fnvPrime * fnvPrime * fnvPrime) & (1<<64 - 1)
)

// fnvFold folds the four little-endian bytes of v into the FNV-1a state h.
// Most MSV components are below 256: then the three zero high bytes, each a
// bare multiply, collapse with the low byte's into one multiply by
// fnvPrime⁴.
func fnvFold(h uint64, v uint32) uint64 {
	if v < 1<<8 {
		return (h ^ uint64(v)) * fnvPrime4
	}
	h = (h ^ uint64(v&0xff)) * fnvPrime
	h = (h ^ uint64(v>>8&0xff)) * fnvPrime
	h = (h ^ uint64(v>>16&0xff)) * fnvPrime
	return (h ^ uint64(v>>24)) * fnvPrime
}

// fnv1a is the 64-bit FNV-1a hash.
func fnv1a(data []byte) uint64 {
	h := uint64(fnvOffset)
	for _, b := range data {
		h ^= uint64(b)
		h *= fnvPrime
	}
	return h
}
