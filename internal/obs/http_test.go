package obs

import (
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestMiddlewareStampsAndEchoesRequestID(t *testing.T) {
	r := NewRegistry()
	m := NewHTTPMetrics(r, HTTPOptions{})
	var seen string
	h := m.Wrap("/v2/classify", func(w http.ResponseWriter, req *http.Request) {
		seen = RequestIDFromContext(req.Context())
		w.WriteHeader(http.StatusOK)
	})

	// Minted ID: present in context, echoed on the response.
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest(http.MethodPost, "/v2/classify", nil))
	if seen == "" {
		t.Fatal("no request ID in context")
	}
	if got := rec.Header().Get(RequestIDHeader); got != seen {
		t.Fatalf("echoed ID %q != context ID %q", got, seen)
	}

	// Caller-supplied ID: honored verbatim.
	rec = httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v2/classify", nil)
	req.Header.Set(RequestIDHeader, "caller-chosen-id")
	h(rec, req)
	if seen != "caller-chosen-id" || rec.Header().Get(RequestIDHeader) != "caller-chosen-id" {
		t.Fatalf("caller ID not honored: context %q, header %q", seen, rec.Header().Get(RequestIDHeader))
	}

	// Oversized ID: truncated, not rejected.
	rec = httptest.NewRecorder()
	req = httptest.NewRequest(http.MethodPost, "/v2/classify", nil)
	req.Header.Set(RequestIDHeader, strings.Repeat("x", 200))
	h(rec, req)
	if len(seen) != MaxRequestIDLen {
		t.Fatalf("oversized ID: len %d, want %d", len(seen), MaxRequestIDLen)
	}
}

func TestMiddlewareCountsByRouteMethodClass(t *testing.T) {
	r := NewRegistry()
	m := NewHTTPMetrics(r, HTTPOptions{})
	ok := m.Wrap("/v2/classify", func(w http.ResponseWriter, req *http.Request) {
		w.Write([]byte("hi")) // implicit 200
	})
	bad := m.Wrap("/v2/insert", func(w http.ResponseWriter, req *http.Request) {
		http.Error(w, "nope", http.StatusBadRequest)
	})
	for i := 0; i < 3; i++ {
		ok(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v2/classify", nil))
	}
	bad(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v2/insert", nil))

	if got := m.latency.With("/v2/classify", "POST", "2xx").Count(); got != 3 {
		t.Errorf("classify 2xx = %v, want 3", got)
	}
	if got := m.latency.With("/v2/insert", "POST", "4xx").Count(); got != 1 {
		t.Errorf("insert 4xx = %v, want 1", got)
	}
	if got := m.inflight.Value(); got != 0 {
		t.Errorf("inflight after completion = %v, want 0", got)
	}
}

func TestMiddlewareSlowLog(t *testing.T) {
	var buf strings.Builder
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	r := NewRegistry()
	m := NewHTTPMetrics(r, HTTPOptions{SlowRequest: time.Nanosecond, Logger: logger})
	h := m.Wrap("/v2/map", func(w http.ResponseWriter, req *http.Request) {
		time.Sleep(time.Millisecond)
	})
	req := httptest.NewRequest(http.MethodPost, "/v2/map", nil)
	req.Header.Set(RequestIDHeader, "slow-req-1")
	h(httptest.NewRecorder(), req)

	out := buf.String()
	for _, want := range []string{"slow request", "request_id=slow-req-1", "route=/v2/map"} {
		if !strings.Contains(out, want) {
			t.Errorf("slow log missing %q: %s", want, out)
		}
	}
	if got := m.slow.With("/v2/map").Value(); got != 1 {
		t.Errorf("slow counter = %v, want 1", got)
	}
}

func TestStatusRecorderPreservesFlusher(t *testing.T) {
	r := NewRegistry()
	m := NewHTTPMetrics(r, HTTPOptions{})
	flushed := false
	h := m.Wrap("/v2/stream", func(w http.ResponseWriter, req *http.Request) {
		f, ok := w.(http.Flusher)
		if !ok {
			t.Fatal("wrapped writer lost http.Flusher")
		}
		w.Write([]byte("line\n"))
		f.Flush()
		flushed = true
	})
	// httptest.ResponseRecorder implements Flusher, so the wrapper must too.
	h(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v2/stream", nil))
	if !flushed {
		t.Fatal("handler did not flush")
	}
}

func TestMetricsHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_handler_total", "x").Inc()
	srv := httptest.NewServer(Handler(r))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	sc, err := Parse(strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := sc.Value("test_handler_total"); !ok || v != 1 {
		t.Errorf("scraped = %v,%v want 1,true", v, ok)
	}
}

func TestSanitizeRequestID(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"plain-id-123", "plain-id-123"},
		{"", ""},
		{"evil\r\nSet-Cookie: x=1", "evilSet-Cookie: x=1"}, // CRLF stripped: no log/header injection
		{"tab\there", "tabhere"},
		{"\x00\x1b[31m\x7f", "[31m"}, // NUL, ESC, DEL stripped
		{"\x00\x01\x02", ""},         // nothing printable remains
		{"héllo", "hllo"},            // non-ASCII stripped, not mangled
		{strings.Repeat("a", 200), strings.Repeat("a", MaxRequestIDLen)},
		{"\n" + strings.Repeat("b", 200), strings.Repeat("b", MaxRequestIDLen)},
	} {
		if got := SanitizeRequestID(tc.in); got != tc.want {
			t.Errorf("SanitizeRequestID(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestMiddlewareMintsIDForUnprintableHeader(t *testing.T) {
	r := NewRegistry()
	m := NewHTTPMetrics(r, HTTPOptions{})
	var seen string
	h := m.Wrap("/v2/classify", func(w http.ResponseWriter, req *http.Request) {
		seen = RequestIDFromContext(req.Context())
	})
	req := httptest.NewRequest(http.MethodPost, "/v2/classify", nil)
	req.Header.Set(RequestIDHeader, "\x01\x02\x03")
	h(httptest.NewRecorder(), req)
	if seen == "" || strings.ContainsAny(seen, "\x01\x02\x03") {
		t.Fatalf("unprintable header: context ID %q, want fresh minted ID", seen)
	}
}

func TestMiddlewarePanicKeepsAccountingStraight(t *testing.T) {
	r := NewRegistry()
	m := NewHTTPMetrics(r, HTTPOptions{})
	h := m.Wrap("/v2/classify", func(w http.ResponseWriter, req *http.Request) {
		panic("handler exploded")
	})

	func() {
		defer func() {
			// The middleware must NOT swallow the panic — net/http owns
			// the recovery policy (tear the connection down).
			if recover() == nil {
				t.Error("panic did not propagate through the middleware")
			}
		}()
		h(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v2/classify", nil))
	}()

	if got := m.inflight.Value(); got != 0 {
		t.Errorf("inflight after panic = %v, want 0", got)
	}
	if got := m.latency.With("/v2/classify", "POST", "5xx").Count(); got != 1 {
		t.Errorf("5xx count after panic = %v, want 1", got)
	}
}
