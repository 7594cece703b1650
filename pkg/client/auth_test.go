// The hardened-edge client contract: the API key rides every request as
// a Bearer credential, 401s decode into the stable unauthorized code,
// and 429s are retried only on the server's own Retry-After schedule.
package client_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/pkg/client"
)

// TestAPIKeySentOnEveryPath: WithAPIKey stamps the Authorization header
// on every request path. The fake answers JSON, so the client is pinned
// to the JSON transport.
func TestAPIKeySentOnEveryPath(t *testing.T) {
	ctx := context.Background()
	var got atomic.Value
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got.Store(r.Header.Get("Authorization"))
		w.Write([]byte(`{"results":[]}`))
	}))
	t.Cleanup(srv.Close)

	c := client.New(srv.URL, client.WithAPIKey("sekrit"), client.WithJSONTransport())
	if _, err := c.Classify(ctx, []string{"e8e8"}); err != nil {
		t.Fatal(err)
	}
	if got.Load() != "Bearer sekrit" {
		t.Fatalf("classify Authorization = %q", got.Load())
	}
}

// TestUnauthorizedDecodes: a 401 from the guard surfaces as an
// *api.Error carrying the stable unauthorized code — and is not retried
// (retrying a credential failure can never succeed).
func TestUnauthorizedDecodes(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		api.WriteError(w, r, api.Errf(api.CodeUnauthorized, "missing API key"))
	}))
	t.Cleanup(srv.Close)

	c := client.New(srv.URL, client.WithRetries(3), client.WithBackoff(time.Millisecond))
	_, err := c.Classify(context.Background(), []string{"e8"})
	if e, ok := err.(*api.Error); !ok || e.Code != api.CodeUnauthorized {
		t.Fatalf("err = %v, want unauthorized api.Error", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("401 was retried: %d calls", calls.Load())
	}
}

// TestRateLimitedRetryAfterHonored: a 429 naming an affordable
// Retry-After is retried after that pause, within the retry budget.
func TestRateLimitedRetryAfterHonored(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "0")
			api.WriteError(w, r, api.Errf(api.CodeRateLimited, "slow down"))
			return
		}
		w.Write([]byte(`{"results":[]}`))
	}))
	t.Cleanup(srv.Close)

	// Pinned to JSON so the call count below sees only the retry policy,
	// not the binary-transport probe.
	c := client.New(srv.URL, client.WithRetries(1), client.WithBackoff(time.Millisecond),
		client.WithJSONTransport())
	if _, err := c.Classify(context.Background(), []string{"e8"}); err != nil {
		t.Fatalf("429+Retry-After was not retried: %v", err)
	}
	if calls.Load() != 2 {
		t.Fatalf("calls = %d, want 2", calls.Load())
	}
}

// TestRateLimitedWithoutRetryAfterSurfaces: a 429 with no Retry-After
// (or one past MaxRetryAfter) is the caller's problem immediately — the
// client must not guess a pause and amplify the overload.
func TestRateLimitedWithoutRetryAfterSurfaces(t *testing.T) {
	for name, header := range map[string]string{
		"no header":    "",
		"unaffordable": "3600",
		"garbage":      "later",
	} {
		var calls atomic.Int64
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			calls.Add(1)
			if header != "" {
				w.Header().Set("Retry-After", header)
			}
			api.WriteError(w, r, api.Errf(api.CodeRateLimited, "slow down"))
		}))

		c := client.New(srv.URL, client.WithRetries(3), client.WithBackoff(time.Millisecond))
		_, err := c.Classify(context.Background(), []string{"e8"})
		if e, ok := err.(*api.Error); !ok || e.Code != api.CodeRateLimited {
			t.Fatalf("%s: err = %v, want rate_limited api.Error", name, err)
		}
		if calls.Load() != 1 {
			t.Fatalf("%s: 429 was retried: %d calls", name, calls.Load())
		}
		srv.Close()
	}
}
