package core_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/sig"
	"repro/internal/spectra"
	"repro/internal/tt"
)

// pinnedKeys holds, per configuration, the SHA-256 of its class keys (Hash,
// 8 little-endian bytes each) over the four-variable universe in table
// order and over keySamples(5..10) in order. They were computed by an
// implementation that serialized every key before hashing it. Keys must
// never change: WAL replay trusts logged keys, followers apply them, and
// clients hold (class, index) identities built on them.
var pinnedKeys = map[string][2]string{
	"all":           {"a09631d3abb1e87600db18425879ffef607221094a2ec050bd0c6f1f8eaa28d9", "108c22d27712dcdc3ca599b6dec3dacd75221985e91f224b89f2be163939f086"},
	"all-fast":      {"a09631d3abb1e87600db18425879ffef607221094a2ec050bd0c6f1f8eaa28d9", "108c22d27712dcdc3ca599b6dec3dacd75221985e91f224b89f2be163939f086"},
	"hint":          {"0a77182be04754d16d6ef1841bec988a0fcc9122a3141f924576199367c6551b", "6a76ad568de944a197624910457f959b879b7eb98da1849acaaa05d24e77797a"},
	"combined":      {"c004fd407de720dc1febcff9155da78c86f6ec843ba6998c32fe4459ba91e9df", "6e6c20e986a6f1df9b73151d2a411ecdf292bed97fae89ab7998b266cc4c61c0"},
	"combined-fast": {"c004fd407de720dc1febcff9155da78c86f6ec843ba6998c32fe4459ba91e9df", "6e6c20e986a6f1df9b73151d2a411ecdf292bed97fae89ab7998b266cc4c61c0"},
	"ocv3":          {"819d66f455d147e39811958700e4c916c86bbd7c0de9a373e8b274257f09d259", "d8a1af9590d909b761f09a9c653b04aa33bc565f99d905754c7204ab7c6baa18"},
	"spectral":      {"2e6f6f3123053cfb74ede48bd36a6a6b23f3bff24d268804abb6d39e48bf09c9", "41521d48cda7ebdaaa07bbebd266869f6e20dab3769f743becc2cf10641c613c"},
	"stage0":        {"d38fee19954cb5f1d3e33f37cab307e31c7fee585fb734d3ae0ae1b089d6ac72", "4e036d918a8b66c1391f44b2c943b3ce22a0c15b3a524ea537dd598016777c86"},
	"stage1":        {"a6022eca73447f073a27d708326212370b44066b526661faf493a117fe65dbb5", "3defb3a8c1ec87a9974d62c295882e4d9195b09744e4350db1cfab13bd2c8636"},
	"stage2":        {"fc75711fc1a3a7ff7a3434abc5d7c6cac47b1c6b085a7302726919842d4c9331", "999ef9be677a7a004dce0a24caf685b0ae122603e169e1735a73881b1302d548"},
	"stage3":        {"abb281a2f8e5cba23ad704f20e93a6c77d315a610f494370acdf0c93a4aa99c7", "4a9b8180aa8ffb2d61feb7ea2cf9e0d9757c003df243b9b134005edd22b07b38"},
	"stage4":        {"199312e78efd3f9cdcdefe6705d863484864ab6080540a45aa99d8aa2287350f", "78b8d40894157fecd3eb259e64cd0c314910209f87a41d84c5b4c361092d1b69"},
}

type keyConfig struct {
	name string
	cfg  core.Config
}

// keyConfigs lists the MSV configurations the repository classifies with:
// the paper's full MSV with pair-enumerated and with spectral OSDV (the
// store default), the store's OCV1+OIV hint key, the extensions, and every
// DefaultStages stage.
func keyConfigs() []keyConfig {
	all := core.ConfigAll()
	fast := all
	fast.FastOSDV = true
	combined, fastCombined, spectral, ocv3 := all, fast, fast, fast
	combined.OSDVCombined = true
	fastCombined.OSDVCombined = true
	spectral.Spectral = true
	ocv3.OCVL = 3
	configs := []keyConfig{
		{"all", all},
		{"all-fast", fast},
		{"hint", core.Config{OCV1: true, OIV: true}},
		{"combined", combined},
		{"combined-fast", fastCombined},
		{"spectral", spectral},
		{"ocv3", ocv3},
	}
	for i, stage := range core.DefaultStages() {
		configs = append(configs, keyConfig{fmt.Sprintf("stage%d", i), stage})
	}
	return configs
}

// keySamples returns seeded n-variable tables: random ones (about half
// have more ones than zeros, so their key is the complement's), balanced
// ones, and sparse ones of one to three minterms beside their dense
// complements.
func keySamples(n int) []*tt.TT {
	rng := rand.New(rand.NewSource(int64(1200 + n)))
	size := 1 << n
	var fs []*tt.TT
	for i := 0; i < 24; i++ {
		fs = append(fs, tt.Random(n, rng))
	}
	for i := 0; i < 12; i++ {
		f := tt.New(n)
		for _, x := range rng.Perm(size)[:size/2] {
			f.Set(x, true)
		}
		fs = append(fs, f)
	}
	for i := 0; i < 12; i++ {
		f := tt.New(n)
		for k := 0; k <= i%3; k++ {
			f.Set(rng.Intn(size), true)
		}
		fs = append(fs, f, f.Not())
	}
	return fs
}

// refRawKey rebuilds from sig's per-vector functions the serialization of
// f's MSV in its given output phase: every component as little-endian
// uint32s, cheap to expensive.
func refRawKey(cfg core.Config, e *sig.Engine, f *tt.TT) []byte {
	var k []byte
	put := func(vs ...int) {
		for _, v := range vs {
			k = binary.LittleEndian.AppendUint32(k, uint32(v))
		}
	}
	putSDV := func(d sig.SDV) {
		for _, row := range d {
			put(row...)
		}
	}
	n := f.NumVars()
	put(f.CountOnes())
	if cfg.OCV1 {
		put(e.OCV1(f)...)
	}
	if cfg.OIV {
		put(e.OIV(f)...)
	}
	if cfg.OSV {
		h0, h1 := e.OSV01(f)
		put(h0...)
		put(h1...)
	}
	if cfg.OCV2 {
		put(e.OCV2(f)...)
	}
	if cfg.OCVL >= 3 && cfg.OCVL <= n {
		put(e.OCVL(f, cfg.OCVL)...)
	}
	if cfg.OSDV {
		if cfg.FastOSDV {
			d0, d1 := e.OSDV01Fast(f)
			putSDV(d0)
			putSDV(d1)
		} else {
			d0, d1 := e.OSDV01(f)
			putSDV(d0)
			putSDV(d1)
		}
		if cfg.OSDVCombined {
			if cfg.FastOSDV {
				putSDV(e.OSDVFast(f))
			} else {
				putSDV(e.OSDV(f))
			}
		}
	}
	if cfg.Spectral {
		for _, m := range spectra.WeightMoments(n, spectra.Spectrum(f)) {
			put(int(m&0xFFFFFFFF), int(m>>32))
		}
	}
	return k
}

// refKey applies the documented phase rule: an unbalanced function's key
// is that of its phase with fewer ones, a balanced function's the
// lexicographically smaller of its two phases' keys.
func refKey(cfg core.Config, e *sig.Engine, f *tt.TT) []byte {
	ones, half := f.CountOnes(), f.NumBits()/2
	switch {
	case ones > half:
		return refRawKey(cfg, e, f.Not())
	case ones < half:
		return refRawKey(cfg, e, f)
	}
	k0, k1 := refRawKey(cfg, e, f), refRawKey(cfg, e, f.Not())
	if bytes.Compare(k1, k0) < 0 {
		return k1
	}
	return k0
}

// fnv1a is the 64-bit FNV-1a hash, one byte at a time.
func fnv1a(data []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range data {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// TestKeyIdentity: for every configuration, on all 65,536 four-variable
// tables and on seeded samples at n = 5..10, Hash is the FNV-1a of
// KeyBytes, KeyBytes is the reference serialization, and the keys match
// the pinned digests.
func TestKeyIdentity(t *testing.T) {
	universe := make([]*tt.TT, 1<<16)
	for w := range universe {
		universe[w] = tt.FromWord(4, uint64(w))
	}
	samples := map[int][]*tt.TT{}
	for n := 5; n <= 10; n++ {
		samples[n] = keySamples(n)
	}
	for _, kc := range keyConfigs() {
		t.Run(kc.name, func(t *testing.T) {
			t.Parallel()
			du, ds := sha256.New(), sha256.New()
			checkKeys(t, kc.cfg, 4, universe, du)
			for n := 5; n <= 10; n++ {
				checkKeys(t, kc.cfg, n, samples[n], ds)
			}
			got := [2]string{hex.EncodeToString(du.Sum(nil)), hex.EncodeToString(ds.Sum(nil))}
			if got != pinnedKeys[kc.name] {
				t.Errorf("keys differ from the pinned digests; now\n\t%q: {%q, %q},", kc.name, got[0], got[1])
			}
		})
	}
}

// checkKeys checks every function in fs under cfg and writes its Hash to
// digest.
func checkKeys(t *testing.T, cfg core.Config, n int, fs []*tt.TT, digest io.Writer) {
	t.Helper()
	c, e := core.New(n, cfg), sig.NewEngine(n)
	var b [8]byte
	for _, f := range fs {
		h := c.Hash(f)
		key := c.KeyBytes(f)
		if want := fnv1a(key); h != want {
			t.Fatalf("n=%d %s: Hash %016x, FNV-1a of KeyBytes %016x", n, f.Hex(), h, want)
		}
		if !bytes.Equal(key, refKey(cfg, e, f)) {
			t.Fatalf("n=%d %s: KeyBytes differs from the reference serialization", n, f.Hex())
		}
		binary.LittleEndian.PutUint64(b[:], h)
		digest.Write(b[:])
	}
}
