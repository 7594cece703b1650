package core

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/npn"
	"repro/internal/tt"
)

// TestKeyNPNInvariance is the central soundness property: the MSV key must
// be identical for every member of an NPN class, for every configuration.
func TestKeyNPNInvariance(t *testing.T) {
	configs := []Config{
		{OIV: true},
		{OCV1: true},
		{OSV: true},
		{OCV1: true, OCV2: true},
		{OIV: true, OSV: true},
		{OCV1: true, OSV: true},
		{OIV: true, OSV: true, OSDV: true},
		ConfigAll(),
		func() Config { c := ConfigAll(); c.OSDVCombined = true; return c }(),
		func() Config { c := ConfigAll(); c.FastOSDV = true; return c }(),
	}
	for _, cfg := range configs {
		cfg := cfg
		t.Run(cfg.Enabled(), func(t *testing.T) {
			qc := &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(70))}
			err := quick.Check(func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				n := 1 + rng.Intn(7)
				c := New(n, cfg)
				f := tt.Random(n, rng)
				g := npn.RandomTransform(n, rng).Apply(f)
				return bytes.Equal(c.KeyBytes(f), c.KeyBytes(g))
			}, qc)
			if err != nil {
				t.Error(err)
			}
		})
	}
}

// TestSoundnessNeverSplitsClasses verifies on an exhaustive small universe
// that the classifier never assigns two different classes to NPN-equivalent
// functions: its class count is ≤ the exact count and its partition is a
// coarsening of the exact partition.
func TestSoundnessNeverSplitsClasses(t *testing.T) {
	n := 3
	c := New(n, ConfigAll())
	keyOf := make(map[uint64]string) // exact canon word -> MSV key
	for w := uint64(0); w < 1<<(1<<n); w++ {
		f := tt.FromWord(n, w)
		canon := npn.CanonWord(w, n)
		key := string(c.KeyBytes(f))
		if prev, ok := keyOf[canon]; ok {
			if prev != key {
				t.Fatalf("NPN class of %02x split: two different MSV keys", canon)
			}
		} else {
			keyOf[canon] = key
		}
	}
}

// TestExactOnSmallUniverse: with all signatures, 3-variable classification
// is exact (14 classes over all 256 functions), mirroring the paper's
// finding that the combination achieves exact classification for small n.
func TestExactOnSmallUniverse(t *testing.T) {
	n := 3
	var fs []*tt.TT
	for w := uint64(0); w < 256; w++ {
		fs = append(fs, tt.FromWord(n, w))
	}
	c := New(n, ConfigAll())
	if got := c.NumClasses(fs); got != 14 {
		t.Errorf("all-signature classification of all 3-var functions: %d classes, want 14", got)
	}
	// Weaker configurations can only merge further (≤ exact count ≤ all).
	weak := New(n, Config{OIV: true})
	if got := weak.NumClasses(fs); got > 14 {
		t.Errorf("OIV-only produced %d classes > exact 14; signatures must never split classes", got)
	}
}

func TestSignatureHierarchy(t *testing.T) {
	// Adding signature vectors can never decrease the class count.
	rng := rand.New(rand.NewSource(71))
	n := 4
	var fs []*tt.TT
	for i := 0; i < 3000; i++ {
		fs = append(fs, tt.Random(n, rng))
	}
	seq := []Config{
		{OIV: true},
		{OIV: true, OSV: true},
		{OIV: true, OSV: true, OCV1: true},
		{OIV: true, OSV: true, OCV1: true, OCV2: true},
		ConfigAll(),
	}
	prev := -1
	for _, cfg := range seq {
		got := New(n, cfg).NumClasses(fs)
		if got < prev {
			t.Errorf("config %s decreased class count: %d < %d", cfg.Enabled(), got, prev)
		}
		prev = got
	}
}

func TestBalancedOutputNegation(t *testing.T) {
	// For any balanced function, f and ¬f must share a key (they are NPN
	// equivalent via output negation alone).
	rng := rand.New(rand.NewSource(72))
	c := New(4, ConfigAll())
	found := 0
	for found < 50 {
		f := tt.Random(4, rng)
		if !f.IsBalanced() {
			continue
		}
		found++
		if !bytes.Equal(c.KeyBytes(f), c.KeyBytes(f.Not())) {
			t.Fatalf("balanced f=%s and ¬f got different keys", f.Hex())
		}
	}
}

// TestFig3BalancedPair reproduces Fig. 3: a balanced pair f, g = NPN
// transform with output negation, where OSV1(f) = OSV0(g) and
// OSV0(f) = OSV1(g) — yet the classifier must place them together.
func TestFig3BalancedPair(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	c := New(4, ConfigAll())
	for tries := 0; tries < 2000; tries++ {
		f := tt.Random(4, rng)
		if !f.IsBalanced() {
			continue
		}
		tr := npn.RandomTransform(4, rng)
		tr.OutNeg = true
		g := tr.Apply(f)
		// Only interesting when the sensitivity split actually swaps.
		e := New(4, Config{OSV: true})
		e.measure(f)
		kf := bytes.Clone(e.serialize(&e.keyBuf, false))
		e.measure(g)
		if bytes.Equal(kf, e.serialize(&e.keyBuf, false)) {
			continue
		}
		if !bytes.Equal(c.KeyBytes(f), c.KeyBytes(g)) {
			t.Fatalf("balanced NPN pair with swapped OSV polarity separated (f=%s)", f.Hex())
		}
		return // found and verified a genuine Fig. 3 instance
	}
	t.Skip("no Fig.3-style pair found in budget (unlikely)")
}

func TestStrictKeysMatchesHashed(t *testing.T) {
	// At test scale, hashed and strict bucketing must agree exactly.
	rng := rand.New(rand.NewSource(75))
	var fs []*tt.TT
	for i := 0; i < 4000; i++ {
		fs = append(fs, tt.Random(5, rng))
	}
	hashed := New(5, ConfigAll()).NumClasses(fs)
	strictCfg := ConfigAll()
	strictCfg.StrictKeys = true
	strict := New(5, strictCfg).NumClasses(fs)
	if hashed != strict {
		t.Errorf("hashed (%d) and strict (%d) class counts differ", hashed, strict)
	}
}

func TestClassifyResultShape(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	var fs []*tt.TT
	for i := 0; i < 100; i++ {
		fs = append(fs, tt.Random(4, rng))
	}
	r := New(4, ConfigAll()).Classify(fs)
	if len(r.ClassOf) != len(fs) {
		t.Fatal("ClassOf length mismatch")
	}
	total := 0
	for _, s := range r.Sizes {
		total += s
	}
	if total != len(fs) {
		t.Error("class sizes do not sum to input count")
	}
	for _, id := range r.ClassOf {
		if id < 0 || id >= r.NumClasses {
			t.Fatal("class id out of range")
		}
	}
}

func TestArityMismatchPanics(t *testing.T) {
	c := New(4, ConfigAll())
	defer func() {
		if recover() == nil {
			t.Error("arity mismatch not detected")
		}
	}()
	c.KeyBytes(tt.New(5))
}

func TestConfigEnabledLabels(t *testing.T) {
	if got := (Config{}).Enabled(); got != "none" {
		t.Errorf("empty config label = %q", got)
	}
	if got := ConfigAll().Enabled(); got != "OCV1+OCV2+OIV+OSV+OSDV" {
		t.Errorf("all config label = %q", got)
	}
}
