package auth

import (
	"fmt"
	"math"
	"net"
	"net/http"
	"net/netip"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/api"
	"repro/internal/obs"
)

// Options configures a Guard.
type Options struct {
	// Keys is the server's API keyring. Nil disables authentication:
	// every request is anonymous (and per-IP limited when AnonRPS > 0).
	Keys *Keyring

	// AnonRPS is the sustained per-client rate granted to requests that
	// carry no API key, bucketed by remote IP. With a keyring mounted,
	// 0 rejects anonymous traffic outright (401 unauthorized); without
	// one, 0 leaves anonymous traffic unlimited.
	AnonRPS float64
	// AnonBurst is the anonymous bucket depth; non-positive defaults to
	// ceil(AnonRPS), floored at 1.
	AnonBurst int

	// Pressure, when set, enables load shedding: it returns the live
	// worker-pool depth (in-flight batches) and the admission limit, and
	// the guard answers 429 while depth >= limit — overload degrades to
	// fast rejections at the edge instead of queueing collapse. It runs
	// on every request and must be cheap (atomic loads).
	Pressure func() (depth, limit int64)

	// TrustedProxies lists CIDRs of load balancers whose X-Forwarded-For
	// the guard believes. Only when the TCP peer is inside one of these
	// prefixes does the anonymous tier bucket by the rightmost
	// non-trusted forwarded hop instead of the peer address; an untrusted
	// peer's forwarded headers are ignored entirely. Empty (the default)
	// trusts nothing. Parse operator input with ParseProxyList.
	TrustedProxies []netip.Prefix

	// Metrics, when set, registers the guard's counter families
	// (npn_http_unauthorized_total, npn_http_rate_limited_total,
	// npn_http_shed_total, by route) on the registry.
	Metrics *obs.Registry
}

// DefaultExempt are the routes that bypass every check: liveness probes
// and metric scrapes must keep answering through exactly the overload
// the guard manages.
var DefaultExempt = []string{"/healthz", "/metrics"}

// DefaultAuthOnly are the routes in the authenticate-but-never-throttle
// tier, which skips rate limiting and load shedding: flight-recorder
// reads name client identities and routes, so on a keyed edge they
// demand the same credentials as any API route — but a trace of the slow
// request is worth nothing if the guard 429s the read of it, so an
// authorized operator is never rate-limited or shed away from them.
var DefaultAuthOnly = []string{"/v2/debug/traces", "/v2/debug/traces/{id}"}

// Guard is the admission-control middleware: authentication, per-client
// rate limiting and load shedding in the api.Middleware shape. Wrap is
// safe for concurrent use once the Guard is built.
type Guard struct {
	keys      *Keyring
	anonRPS   float64
	anonBurst int
	pressure  func() (int64, int64)
	limiter   Limiter
	trusted   []netip.Prefix

	// Counters may be nil (no metrics registry mounted).
	unauthorized *obs.CounterVec
	rateLimited  *obs.CounterVec
	shed         *obs.CounterVec
}

// NewGuard builds the admission-control middleware.
func NewGuard(o Options) *Guard {
	g := &Guard{
		keys:      o.Keys,
		anonRPS:   o.AnonRPS,
		anonBurst: o.AnonBurst,
		pressure:  o.Pressure,
		trusted:   o.TrustedProxies,
	}
	if g.anonBurst <= 0 {
		if b := int(math.Ceil(g.anonRPS)); b > 1 {
			g.anonBurst = b
		} else {
			g.anonBurst = 1
		}
	}
	if o.Metrics != nil {
		g.unauthorized = o.Metrics.CounterVec("npn_http_unauthorized_total",
			"Requests refused for missing or invalid API credentials, by route.", "route")
		g.rateLimited = o.Metrics.CounterVec("npn_http_rate_limited_total",
			"Requests refused by per-client rate limiting, by route.", "route")
		g.shed = o.Metrics.CounterVec("npn_http_shed_total",
			"Requests shed because the worker pools were saturated, by route.", "route")
	}
	return g
}

// Wrap guards one route's handler. The signature matches api.Middleware
// structurally, so a Router takes the method value directly:
// rt.Use(g.Wrap). Checks run cheapest-first — shedding before
// authentication before rate limiting — so a saturated server spends as
// little as possible per rejected request.
func (g *Guard) Wrap(route string, next http.HandlerFunc) http.HandlerFunc {
	if slices.Contains(DefaultExempt, route) {
		return next
	}
	authOnly := slices.Contains(DefaultAuthOnly, route)
	return func(w http.ResponseWriter, r *http.Request) {
		// The guard span ends before the handler runs: it times the
		// admission decision, not the request. Child spans of the work
		// itself stay siblings under the root, not under the guard.
		_, sp := obs.StartSpan(r.Context(), "auth.guard")
		if !authOnly && g.pressure != nil {
			if depth, limit := g.pressure(); limit > 0 && depth >= limit {
				inc(g.shed, route)
				sp.SetAttr("outcome", "shed")
				sp.End()
				writeRateLimited(w, r, time.Second,
					"server overloaded: %d batches in flight (limit %d)", depth, limit)
				return
			}
		}
		id, rps, burst, err := g.identify(r)
		if err != nil {
			inc(g.unauthorized, route)
			sp.SetAttr("outcome", "unauthorized")
			sp.End()
			api.WriteError(w, r, err)
			return
		}
		// Auth-only routes spend no tokens: the flight recorder must stay
		// readable through exactly the rate storm or overload under debug.
		if !authOnly {
			if ok, retryAfter := g.limiter.Allow(id, rps, burst); !ok {
				inc(g.rateLimited, route)
				sp.SetAttr("outcome", "rate_limited")
				sp.SetAttr("client", id)
				sp.End()
				writeRateLimited(w, r, retryAfter,
					"rate limit exceeded for %s", id)
				return
			}
		}
		sp.SetAttr("outcome", "ok")
		sp.SetAttr("client", id)
		sp.End()
		next(w, r)
	}
}

// identify resolves the request to a rate-limit identity and quota, or an
// unauthorized error. A presented-but-unknown key always fails — it never
// silently downgrades to the anonymous tier.
func (g *Guard) identify(r *http.Request) (id string, rps float64, burst int, err *api.Error) {
	secret, present := bearerToken(r)
	switch {
	case present && g.keys != nil:
		k, ok := g.keys.Lookup(secret)
		if !ok {
			return "", 0, 0, api.Errf(api.CodeUnauthorized, "unknown API key")
		}
		return "key:" + k.Name, k.RPS, k.burst(), nil
	case present: // a key was offered but no keyring is mounted
		return "", 0, 0, api.Errf(api.CodeUnauthorized,
			"this server does not accept API keys").
			WithDetail("remove the Authorization header")
	case g.keys != nil && g.anonRPS <= 0:
		return "", 0, 0, api.Errf(api.CodeUnauthorized,
			"missing API key").
			WithDetail("send Authorization: Bearer <key>")
	default: // anonymous tier, bucketed per client IP
		return "ip:" + g.clientIP(r), g.anonRPS, g.anonBurst, nil
	}
}

// clientIP resolves the address the anonymous tier buckets by. Without
// trusted proxies (the default) it is the TCP peer, full stop. With
// them, and only when the peer itself is inside a trusted prefix, the
// X-Forwarded-For chain is walked right to left — the rightmost hop is
// what the nearest proxy observed — and the first non-trusted address
// wins; hops further left are client-controlled noise. A chain that is
// all trusted (or unparseable) falls back to the peer.
func (g *Guard) clientIP(r *http.Request) string {
	peer := remoteIP(r)
	if len(g.trusted) == 0 || !g.isTrusted(peer) {
		return peer
	}
	var hops []string
	for _, h := range r.Header.Values("X-Forwarded-For") {
		hops = append(hops, strings.Split(h, ",")...)
	}
	for i := len(hops) - 1; i >= 0; i-- {
		hop := strings.TrimSpace(hops[i])
		if hop == "" {
			continue
		}
		a, err := netip.ParseAddr(hop)
		if err != nil {
			return peer // a garbage hop means the chain is untrustworthy
		}
		if !g.prefixContains(a) {
			return a.Unmap().String()
		}
	}
	return peer
}

// isTrusted reports whether a textual address is inside a trusted
// proxy prefix.
func (g *Guard) isTrusted(ip string) bool {
	a, err := netip.ParseAddr(ip)
	if err != nil {
		return false
	}
	return g.prefixContains(a)
}

func (g *Guard) prefixContains(a netip.Addr) bool {
	a = a.Unmap()
	for _, p := range g.trusted {
		if p.Contains(a) {
			return true
		}
	}
	return false
}

// ParseProxyList parses a comma-separated list of proxy CIDRs (bare
// addresses are accepted as single-host prefixes) — the -trusted-proxies
// flag format. An empty string yields nil.
func ParseProxyList(s string) ([]netip.Prefix, error) {
	var out []netip.Prefix
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if !strings.Contains(part, "/") {
			a, err := netip.ParseAddr(part)
			if err != nil {
				return nil, fmt.Errorf("auth: bad proxy address %q: %w", part, err)
			}
			a = a.Unmap()
			out = append(out, netip.PrefixFrom(a, a.BitLen()))
			continue
		}
		p, err := netip.ParsePrefix(part)
		if err != nil {
			return nil, fmt.Errorf("auth: bad proxy CIDR %q: %w", part, err)
		}
		out = append(out, p.Masked())
		continue
	}
	return out, nil
}

// inc bumps a counter that may be nil (metrics disabled).
func inc(v *obs.CounterVec, route string) {
	if v != nil {
		v.With(route).Inc()
	}
}

// writeRateLimited answers 429 with the stable rate_limited code and a
// Retry-After header of at least one second (whole seconds, rounded up —
// the HTTP header carries integers).
func writeRateLimited(w http.ResponseWriter, r *http.Request, retryAfter time.Duration, format string, args ...any) {
	secs := int64(math.Ceil(retryAfter.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	api.WriteError(w, r, api.Errf(api.CodeRateLimited, format, args...).
		WithDetail("retry after %ds", secs))
}

// bearerToken extracts the Authorization: Bearer credential, reporting
// whether any Authorization header was presented at all.
func bearerToken(r *http.Request) (token string, present bool) {
	h := r.Header.Get("Authorization")
	if h == "" {
		return "", false
	}
	const prefix = "Bearer "
	if len(h) > len(prefix) && strings.EqualFold(h[:len(prefix)], prefix) {
		return h[len(prefix):], true
	}
	return "", true // a non-Bearer Authorization header is still an auth attempt
}

// remoteIP returns the connection's peer IP — deliberately not
// X-Forwarded-For, which an untrusted client sets freely. Deployments
// behind a trusted proxy should rate-limit at the proxy or issue keys.
// The address is canonicalized through netip (IPv4-mapped IPv6
// unmapped) so textual variants of one peer — "::ffff:1.2.3.4" vs
// "1.2.3.4" — share a single rate bucket, matching the form clientIP
// derives from a forwarded hop.
func remoteIP(r *http.Request) string {
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		host = r.RemoteAddr
	}
	if a, err := netip.ParseAddr(host); err == nil {
		return a.Unmap().String()
	}
	return host
}
