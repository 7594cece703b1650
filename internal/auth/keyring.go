// Package auth is the admission-control layer at the api.Router edge:
// API-key authentication (a keyring of named keys with per-key quotas),
// per-client token-bucket rate limiting (per key, falling back to per
// remote IP for anonymous traffic), and load shedding tied to live
// worker-pool depth — so an abusive or runaway client degrades to fast
// 401/429 responses at the edge instead of driving the worker pools into
// queueing collapse for everyone.
//
// The Guard in guard.go packages the three checks as one middleware in
// the api.Middleware shape, so both serving stacks (federated primary,
// replication follower) mount it with a single rt.Use. /healthz and
// /metrics are exempt: probes and scrapes must survive exactly the
// overload the guard exists to manage.
package auth

import (
	"bufio"
	"crypto/sha256"
	"crypto/subtle"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
)

// Key is one API identity: a display name (never secret), the bearer
// secret, and the identity's token-bucket quota.
type Key struct {
	// Name labels the key in logs and metrics; it carries no secret.
	Name string
	// Secret is the bearer token presented as "Authorization: Bearer
	// <secret>".
	Secret string
	// RPS is the sustained request rate the key may hold; 0 means
	// unlimited (the key authenticates but is never throttled).
	RPS float64
	// Burst is the token-bucket depth — how far above the sustained rate
	// a short spike may go. Non-positive defaults to ceil(RPS), floored
	// at 1.
	Burst int
}

// burst returns the effective bucket depth.
func (k Key) burst() int {
	if k.Burst > 0 {
		return k.Burst
	}
	if b := int(math.Ceil(k.RPS)); b > 1 {
		return b
	}
	return 1
}

// entry is a keyring member: the key plus the SHA-256 digest of its
// secret, the only form lookups compare against.
type entry struct {
	Key
	digest [sha256.Size]byte
}

// Keyring holds the server's API keys. Lookups compare SHA-256 digests
// with crypto/subtle over every entry, so the comparison cost does not
// depend on which (or whether a) key matched. The entry set itself is
// held behind an atomic pointer: readers see a consistent immutable
// snapshot, and Swap replaces the whole set at once (the SIGHUP hot
// reload in cmd/npnserve), so a Keyring is safe for concurrent use.
type Keyring struct {
	entries atomic.Pointer[[]entry]
}

// load returns the current immutable entry snapshot.
func (kr *Keyring) load() []entry {
	if p := kr.entries.Load(); p != nil {
		return *p
	}
	return nil
}

// NewKeyring builds a keyring from parsed keys, rejecting empty secrets
// and duplicate names or secrets (one secret must map to one quota).
func NewKeyring(keys []Key) (*Keyring, error) {
	var entries []entry
	names := make(map[string]bool, len(keys))
	digests := make(map[[sha256.Size]byte]bool, len(keys))
	for _, k := range keys {
		if k.Secret == "" {
			return nil, fmt.Errorf("auth: key %q has an empty secret", k.Name)
		}
		if k.Name == "" {
			return nil, fmt.Errorf("auth: key without a name")
		}
		if names[k.Name] {
			return nil, fmt.Errorf("auth: duplicate key name %q", k.Name)
		}
		if k.RPS < 0 {
			return nil, fmt.Errorf("auth: key %q: negative rate %v", k.Name, k.RPS)
		}
		d := sha256.Sum256([]byte(k.Secret))
		if digests[d] {
			return nil, fmt.Errorf("auth: key %q duplicates another key's secret", k.Name)
		}
		names[k.Name], digests[d] = true, true
		entries = append(entries, entry{Key: k, digest: d})
	}
	kr := &Keyring{}
	kr.entries.Store(&entries)
	return kr, nil
}

// Len returns the number of keys on the ring.
func (kr *Keyring) Len() int { return len(kr.load()) }

// Swap atomically replaces this ring's key set with next's. Holders of
// the Keyring pointer (the Guard) start resolving against the new set on
// their next Lookup; in-flight Lookups finish against whichever snapshot
// they started with. The quota stamped on each identity is re-read from
// the ring per request by the limiter, so rate changes apply immediately
// too.
func (kr *Keyring) Swap(next *Keyring) {
	entries := next.load()
	kr.entries.Store(&entries)
}

// Lookup resolves a presented secret to its key. Every entry is compared
// in constant time regardless of earlier matches, so response timing
// leaks neither a match's position nor a near-miss's length.
func (kr *Keyring) Lookup(secret string) (Key, bool) {
	d := sha256.Sum256([]byte(secret))
	var found Key
	matched := 0
	for _, e := range kr.load() {
		if subtle.ConstantTimeCompare(e.digest[:], d[:]) == 1 {
			found = e.Key
			matched = 1
		}
	}
	return found, matched == 1
}

// ParseKeySpec parses one "name:secret[:rps[:burst]]" key specification —
// the format of both the -key flag and each key-file line. rps accepts
// decimals ("0.5"); burst is an integer bucket depth.
func ParseKeySpec(spec string) (Key, error) {
	parts := strings.Split(spec, ":")
	if len(parts) < 2 || len(parts) > 4 {
		return Key{}, fmt.Errorf("auth: key spec %q: want name:secret[:rps[:burst]]", redact(spec))
	}
	k := Key{Name: strings.TrimSpace(parts[0]), Secret: parts[1]}
	if len(parts) >= 3 {
		rps, err := strconv.ParseFloat(strings.TrimSpace(parts[2]), 64)
		if err != nil {
			return Key{}, fmt.Errorf("auth: key %q: bad rps %q", k.Name, parts[2])
		}
		k.RPS = rps
	}
	if len(parts) == 4 {
		burst, err := strconv.Atoi(strings.TrimSpace(parts[3]))
		if err != nil {
			return Key{}, fmt.Errorf("auth: key %q: bad burst %q", k.Name, parts[3])
		}
		k.Burst = burst
	}
	return k, nil
}

// ParseKeys reads a key file: one "name:secret[:rps[:burst]]" spec per
// line, blank lines and #-comment lines ignored.
func ParseKeys(r io.Reader) ([]Key, error) {
	var keys []Key
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		s := strings.TrimSpace(sc.Text())
		if s == "" || strings.HasPrefix(s, "#") {
			continue
		}
		k, err := ParseKeySpec(s)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		keys = append(keys, k)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return keys, nil
}

// LoadKeyring builds a keyring from a key file path and/or inline
// comma-separated key specs (either may be empty).
func LoadKeyring(path, inline string) (*Keyring, error) {
	var keys []Key
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		parsed, perr := ParseKeys(f)
		f.Close()
		if perr != nil {
			return nil, fmt.Errorf("%s: %w", path, perr)
		}
		keys = append(keys, parsed...)
	}
	if inline != "" {
		for _, spec := range strings.Split(inline, ",") {
			k, err := ParseKeySpec(spec)
			if err != nil {
				return nil, err
			}
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		return nil, nil
	}
	return NewKeyring(keys)
}

// redact trims a possibly secret-bearing spec for error messages.
func redact(spec string) string {
	if i := strings.IndexByte(spec, ':'); i >= 0 {
		return spec[:i+1] + "…"
	}
	return spec
}
