// Package client is the official Go client of the npnserve /v2 API —
// the one HTTP client the repository itself uses (replica proxy mode,
// examples/serve, the cmd-level end-to-end tests) and the one external
// callers should embed. It speaks the typed envelopes of internal/api,
// decodes the machine-readable error taxonomy into *api.Error values,
// retries transient transport failures, sends batches longer than
// api.MaxBatch as consecutive requests, and replays witness certificates
// locally.
//
//	c := client.New("http://localhost:8080")
//	resp, err := c.Insert(ctx, []string{"cafef00dcafef00d"})
//	cls, err := c.Classify(ctx, []string{"f00dcafef00dcafe"})
//	for _, it := range cls.Results {
//		if it.Hit {
//			err := client.ReplayWitness(it) // certify τ(rep) = function
//		}
//	}
//
// Errors: any non-2xx /v2 response decodes into an *api.Error, so callers
// can switch on its stable Code (api.CodeBadHex, api.CodeReadOnly, ...).
// Per-item errors inside 200 batch responses are on the items themselves.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/api"
	"repro/internal/obs"
	"repro/internal/tt"
)

// DefaultTimeout is the whole-request timeout of the default HTTP client.
const DefaultTimeout = 30 * time.Second

// MaxRetryAfter caps how long the client honors a server's Retry-After
// before giving up on the attempt budget instead: a server asking for a
// longer pause than this is treated as unavailable and its error is
// returned to the caller, who owns long waits.
const MaxRetryAfter = 10 * time.Second

// Client is a connection to one npnserve-compatible server. It is safe
// for concurrent use.
type Client struct {
	base    string
	hc      *http.Client
	retries int
	backoff time.Duration
	apiKey  string
	// jsonOnly pins the JSON transport (WithJSONTransport).
	jsonOnly bool
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// transports, test doubles).
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithRetries sets how many times a failed request is retried beyond the
// first attempt. Only transport errors and 502/503/504 responses are
// retried; every API operation here is idempotent (insert included — the
// store dedups by exact table), so retries are always safe.
func WithRetries(n int) Option { return func(c *Client) { c.retries = n } }

// WithBackoff sets the base delay between retries (attempt k waits
// k*backoff). Zero disables the delay.
func WithBackoff(d time.Duration) Option { return func(c *Client) { c.backoff = d } }

// WithAPIKey attaches an API key: every request carries it as
// "Authorization: Bearer <key>", the credential a hardened npnserve
// (-keys/-key) authenticates and meters quotas by.
func WithAPIKey(key string) Option { return func(c *Client) { c.apiKey = key } }

// WithJSONTransport pins Classify and Insert to the JSON envelope,
// disabling the binary-frame negotiation. Useful against servers or
// intermediaries that refuse the frame or inspect bodies, or when
// debugging with text-only tooling.
func WithJSONTransport() Option { return func(c *Client) { c.jsonOnly = true } }

// New returns a client for the server at base (e.g. "http://host:8080").
func New(base string, opts ...Option) *Client {
	c := &Client{
		base:    strings.TrimRight(base, "/"),
		hc:      &http.Client{Timeout: DefaultTimeout},
		retries: 2,
		backoff: 100 * time.Millisecond,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Base returns the server base URL.
func (c *Client) Base() string { return c.base }

// Classify looks up a batch of hex truth tables via POST /v2/classify.
// Per-item failures are on the returned items; the error return is for
// envelope-level failures only. When every function's arity is
// unambiguous the batch travels as a binary frame (docs/WIRE.md), unless
// WithJSONTransport pinned the JSON envelope; a server's refusal of the
// frame is returned as its *api.Error. A batch longer than api.MaxBatch
// goes out as consecutive requests of at most MaxBatch functions and
// comes back as one response: results in input order, Errors summed. An
// envelope error on any request fails the whole call.
func (c *Client) Classify(ctx context.Context, fns []string) (*api.ClassifyResponse, error) {
	if len(fns) > api.MaxBatch {
		return inChunks(ctx, fns, c.Classify, func(into, chunk *api.ClassifyResponse) {
			into.Results = append(into.Results, chunk.Results...)
			into.Errors += chunk.Errors
		})
	}
	if !c.jsonOnly {
		if fs, ok := parseBinaryBatch(fns); ok {
			return c.classifyBinary(ctx, fns, fs)
		}
	}
	var out api.ClassifyResponse
	if err := c.postJSON(ctx, "/v2/classify", api.BatchRequest{Functions: fns}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Insert inserts a batch of hex truth tables via POST /v2/insert,
// negotiating the transport and splitting long batches exactly as
// Classify does. When a later request of a split batch fails, the
// functions of the earlier ones stay inserted; sending the batch again
// is safe, since inserting a stored function changes nothing.
func (c *Client) Insert(ctx context.Context, fns []string) (*api.InsertResponse, error) {
	if len(fns) > api.MaxBatch {
		return inChunks(ctx, fns, c.Insert, func(into, chunk *api.InsertResponse) {
			into.Results = append(into.Results, chunk.Results...)
			into.Errors += chunk.Errors
		})
	}
	if !c.jsonOnly {
		if fs, ok := parseBinaryBatch(fns); ok {
			return c.insertBinary(ctx, fns, fs)
		}
	}
	var out api.InsertResponse
	if err := c.postJSON(ctx, "/v2/insert", api.BatchRequest{Functions: fns}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// inChunks sends fns through send as consecutive requests of at most
// api.MaxBatch functions and merges the responses in order.
func inChunks[R any](ctx context.Context, fns []string, send func(context.Context, []string) (*R, error), merge func(into, chunk *R)) (*R, error) {
	var out R
	for len(fns) > 0 {
		n := min(len(fns), api.MaxBatch)
		resp, err := send(ctx, fns[:n])
		if err != nil {
			return nil, err
		}
		merge(&out, resp)
		fns = fns[n:]
	}
	return &out, nil
}

// MapParams mirror the query parameters of POST /v2/map.
type MapParams struct {
	K      int    // 0 = server default (6)
	Mode   string // "", "depth" or "area"
	Cuts   int    // 0 = server default (8)
	Insert bool   // insert discovered LUT classes into the store
}

func (p MapParams) query() string {
	q := url.Values{}
	if p.K != 0 {
		q.Set("k", strconv.Itoa(p.K))
	}
	if p.Mode != "" {
		q.Set("mode", p.Mode)
	}
	if p.Cuts != 0 {
		q.Set("cuts", strconv.Itoa(p.Cuts))
	}
	if p.Insert {
		q.Set("insert", "true")
	}
	if len(q) == 0 {
		return ""
	}
	return "?" + q.Encode()
}

// Map uploads an ASCII-AIGER circuit to POST /v2/map and returns the
// functionally-verified k-LUT mapping with its NPN class census.
func (c *Client) Map(ctx context.Context, circuit io.Reader, p MapParams) (*api.MapResponse, error) {
	body, err := io.ReadAll(circuit)
	if err != nil {
		return nil, err
	}
	status, resp, err := c.do(ctx, http.MethodPost, "/v2/map"+p.query(), "text/plain", body)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, decodeAPIError(status, resp)
	}
	var out api.MapResponse
	if err := json.Unmarshal(resp, &out); err != nil {
		return nil, fmt.Errorf("client: decoding map response: %w", err)
	}
	return &out, nil
}

// Spec fetches the server's self-description from GET /v2/spec.
func (c *Client) Spec(ctx context.Context) (*api.Spec, error) {
	raw, err := c.getRawJSON(ctx, "/v2/spec")
	if err != nil {
		return nil, err
	}
	var s api.Spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("client: decoding spec: %w", err)
	}
	return &s, nil
}

// Compact triggers POST /v2/compact (federated primaries only) and
// returns the per-arity report.
func (c *Client) Compact(ctx context.Context) (json.RawMessage, error) {
	status, body, err := c.do(ctx, http.MethodPost, "/v2/compact", "application/json", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, decodeAPIError(status, body)
	}
	return body, nil
}

// Healthz fetches GET /healthz, returning the status code alongside the
// body: a follower past its staleness gate answers 503 with a body that
// is still well-formed. It deliberately bypasses the retry policy — a
// probe that retried 503s would mask and delay exactly the state it
// exists to surface.
func (c *Client) Healthz(ctx context.Context) (int, json.RawMessage, error) {
	status, _, body, err := c.once(ctx, http.MethodGet, "/healthz", "", "", nil)
	return status, body, err
}

// Get is the raw GET escape hatch: one request (with retries) against an
// arbitrary path, returning status and body, for routes this client has
// no typed method for (the fallbacks, /metrics, the replication feed) and
// for probing a server's exact bytes.
func (c *Client) Get(ctx context.Context, path string) (int, []byte, error) {
	return c.do(ctx, http.MethodGet, path, "", nil)
}

// Post is the raw POST escape hatch, the write-side twin of Get.
func (c *Client) Post(ctx context.Context, path, contentType string, body []byte) (int, []byte, error) {
	return c.do(ctx, http.MethodPost, path, contentType, body)
}

// getRawJSON GETs a path and returns the body, decoding error envelopes.
func (c *Client) getRawJSON(ctx context.Context, path string) (json.RawMessage, error) {
	status, body, err := c.do(ctx, http.MethodGet, path, "", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, decodeAPIError(status, body)
	}
	return body, nil
}

// postJSON posts a JSON body and decodes a 200 JSON response into out.
func (c *Client) postJSON(ctx context.Context, path string, in, out any) error {
	b, err := json.Marshal(in)
	if err != nil {
		return err
	}
	status, body, err := c.do(ctx, http.MethodPost, path, "application/json", b)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return decodeAPIError(status, body)
	}
	return json.Unmarshal(body, out)
}

// do issues one request with the retry policy: transport errors and
// 502/503/504 are retried up to c.retries times with linear backoff. A
// 429 is retried only when the server names a Retry-After the client can
// afford (≤ MaxRetryAfter) — the pause is the server's number, not the
// backoff schedule — otherwise it is returned to the caller at once so
// quota exhaustion is visible instead of silently amplified.
func (c *Client) do(ctx context.Context, method, path, contentType string, body []byte) (int, []byte, error) {
	return c.doAccept(ctx, method, path, contentType, "", body)
}

// doAccept is do with an explicit Accept header — the binary transport
// negotiates the response encoding through it.
func (c *Client) doAccept(ctx context.Context, method, path, contentType, accept string, body []byte) (int, []byte, error) {
	var lastErr error
	for attempt := 0; attempt <= c.retries; attempt++ {
		if attempt > 0 {
			if err := sleepCtx(ctx, time.Duration(attempt)*c.backoff); err != nil {
				return 0, nil, err
			}
		}
		status, hdr, respBody, err := c.once(ctx, method, path, contentType, accept, body)
		if err != nil {
			lastErr = err
			if ctx.Err() != nil {
				return 0, nil, err
			}
			continue
		}
		if status == http.StatusTooManyRequests && attempt < c.retries {
			wait, ok := retryAfter(hdr)
			if !ok {
				return status, respBody, nil
			}
			if err := sleepCtx(ctx, wait); err != nil {
				return 0, nil, err
			}
			lastErr = fmt.Errorf("client: %s %s: status %d", method, path, status)
			continue
		}
		if retryableStatus(status) && attempt < c.retries {
			lastErr = fmt.Errorf("client: %s %s: status %d", method, path, status)
			continue
		}
		return status, respBody, nil
	}
	return 0, nil, lastErr
}

// retryAfter reads a delay-seconds Retry-After header, reporting whether
// the wait is one worth taking (present, parseable, ≤ MaxRetryAfter).
// HTTP-date values are not produced by npnserve and are not parsed.
func retryAfter(hdr http.Header) (time.Duration, bool) {
	v := hdr.Get("Retry-After")
	if v == "" {
		return 0, false
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0, false
	}
	d := time.Duration(secs) * time.Second
	if d > MaxRetryAfter {
		return 0, false
	}
	return d, true
}

func (c *Client) once(ctx context.Context, method, path, contentType, accept string, body []byte) (int, http.Header, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	if c.apiKey != "" {
		req.Header.Set("Authorization", "Bearer "+c.apiKey)
	}
	// Cross-hop trace propagation: a caller holding a traced request
	// context (the follower proxy re-asking its primary) stamps the
	// request ID and the active span's coordinates onto the outgoing
	// request, so the primary's trace records which remote span fathered
	// it. Both are no-ops outside a traced request.
	if id := obs.RequestIDFromContext(ctx); id != "" {
		req.Header.Set(obs.RequestIDHeader, id)
	}
	if parent := obs.TraceParent(ctx); parent != "" {
		req.Header.Set(obs.TraceParentHeader, parent)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, nil, err
	}
	return resp.StatusCode, resp.Header, respBody, nil
}

func retryableStatus(status int) bool {
	return status == http.StatusBadGateway || status == http.StatusServiceUnavailable ||
		status == http.StatusGatewayTimeout
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// decodeAPIError turns a non-2xx body into an *api.Error when it carries
// the /v2 envelope, or a plain error otherwise (e.g. a proxy's own error
// page).
func decodeAPIError(status int, body []byte) error {
	var env api.ErrorEnvelope
	if err := json.Unmarshal(body, &env); err == nil && env.Error != nil {
		return env.Error
	}
	return fmt.Errorf("client: status %d: %s", status, bytes.TrimSpace(body))
}

// ReplayWitness certifies one classify hit locally: it decodes the wire
// witness τ and checks τ(rep) = function, so a client never has to trust
// the server's matcher. Items that are misses or carry errors fail.
func ReplayWitness(it api.ClassifyItem) error {
	if it.Error != nil {
		return fmt.Errorf("client: item %q carries error %s", it.Function, it.Error.Code)
	}
	if !it.Hit || it.Witness == nil {
		return fmt.Errorf("client: item %q is not a hit", it.Function)
	}
	tr, err := it.Witness.Transform()
	if err != nil {
		return fmt.Errorf("client: witness for %q: %w", it.Function, err)
	}
	n := len(it.Witness.Perm)
	rep, err := tt.FromHex(n, it.Rep)
	if err != nil {
		return fmt.Errorf("client: rep for %q: %w", it.Function, err)
	}
	fn, err := tt.FromHex(n, it.Function)
	if err != nil {
		return fmt.Errorf("client: function %q: %w", it.Function, err)
	}
	if !tr.Apply(rep).Equal(fn) {
		return fmt.Errorf("client: witness for %q does not verify", it.Function)
	}
	return nil
}
