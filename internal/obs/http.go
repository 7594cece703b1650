package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// RequestIDHeader is the header a request ID arrives in and is echoed on.
// A caller-supplied ID is honored after sanitization (control and
// non-printable bytes stripped, truncated to MaxRequestIDLen); absent or
// entirely unprintable, the middleware mints a fresh random ID. Either
// way every response carries the header, so a client can quote the ID
// when reporting a failure and the slow-request log line is greppable by
// it.
const RequestIDHeader = "X-Request-Id"

// MaxRequestIDLen bounds accepted caller-supplied request IDs; longer
// values are truncated rather than rejected (an ID is a correlation aid,
// not a protocol field).
const MaxRequestIDLen = 64

// SanitizeRequestID makes a caller-supplied request ID safe to echo and
// log: bytes outside printable ASCII (control characters, DEL, anything
// non-ASCII) are stripped and the result is truncated to MaxRequestIDLen.
// Untrusted header bytes reach the slow-request slog line and the
// response header only through this filter. Returns "" when nothing safe
// remains.
func SanitizeRequestID(id string) string {
	clean := true
	for i := 0; i < len(id); i++ {
		if id[i] < 0x20 || id[i] > 0x7e {
			clean = false
			break
		}
	}
	if clean {
		if len(id) > MaxRequestIDLen {
			return id[:MaxRequestIDLen]
		}
		return id
	}
	b := make([]byte, 0, MaxRequestIDLen)
	for i := 0; i < len(id) && len(b) < MaxRequestIDLen; i++ {
		if c := id[i]; c >= 0x20 && c <= 0x7e {
			b = append(b, c)
		}
	}
	return string(b)
}

type ctxKey int

const requestIDKey ctxKey = 0

// RequestIDFromContext returns the request ID the HTTP middleware stamped
// on the request's context, or "" outside an instrumented request.
func RequestIDFromContext(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey).(string)
	return id
}

// ContextWithRequestID returns ctx carrying the given request ID; tests
// and non-HTTP entry points use it to exercise ID propagation.
func ContextWithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey, id)
}

// newRequestID mints a 16-hex-digit random ID.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing means the process is in serious trouble; a
		// constant ID still keeps responses well-formed.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// HTTPOptions configures HTTPMetrics.
type HTTPOptions struct {
	// SlowRequest is the latency threshold above which a structured
	// slow-request log line is emitted. Zero disables slow logging.
	SlowRequest time.Duration
	// Logger receives slow-request lines; nil means slog.Default.
	Logger *slog.Logger
	// Tracer, when non-nil, roots a span timeline per request under the
	// request ID (honoring an X-Trace-Parent from an upstream hop) and
	// hands finished traces to its flight recorder. Nil keeps tracing
	// entirely off: StartSpan below the handler sees no active span and
	// returns nil spans.
	Tracer *Tracer
}

// HTTPMetrics is the per-request instrumentation middleware: it stamps
// request IDs, records latency histograms by route × method × status
// class (whose _count series counts the requests), tracks in-flight
// requests and logs slow requests. Its Wrap method structurally matches
// the Router middleware shape of internal/api without obs importing it.
type HTTPMetrics struct {
	opts     HTTPOptions
	latency  *HistogramVec
	inflight *Gauge
	slow     *CounterVec
}

// NewHTTPMetrics registers the HTTP metric families on r and returns the
// middleware.
func NewHTTPMetrics(r *Registry, opts HTTPOptions) *HTTPMetrics {
	if opts.Logger == nil {
		opts.Logger = slog.Default()
	}
	return &HTTPMetrics{
		opts: opts,
		latency: r.HistogramVec("npn_http_request_duration_seconds",
			"HTTP request latency, by route, method and status class.",
			DurationBuckets(), "route", "method", "code"),
		inflight: r.Gauge("npn_http_inflight_requests",
			"HTTP requests currently being served."),
		slow: r.CounterVec("npn_http_slow_requests_total",
			"HTTP requests slower than the slow-request threshold, by route.",
			"route"),
	}
}

// Wrap instruments one route's handler. The signature matches
// api.Middleware structurally, so a Router can take the method value
// directly: rt.Use(m.Wrap).
func (m *HTTPMetrics) Wrap(route string, next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := SanitizeRequestID(r.Header.Get(RequestIDHeader))
		if id == "" {
			id = newRequestID()
		}
		w.Header().Set(RequestIDHeader, id)
		r = r.WithContext(ContextWithRequestID(r.Context(), id))

		var tr *Trace
		if m.opts.Tracer != nil {
			tctx, t := m.opts.Tracer.StartTrace(r.Context(), route, r.Method, id,
				r.Header.Get(TraceParentHeader))
			tr = t
			r = r.WithContext(tctx)
		}

		sr := &statusRecorder{ResponseWriter: w}
		m.inflight.Add(1)
		start := time.Now()
		// The accounting runs in a defer so a panicking handler cannot
		// leak the in-flight gauge or drop the request from the histogram:
		// the panic propagates to net/http (which tears the connection
		// down) after the request is recorded as a 5xx.
		panicked := true
		defer func() {
			d := time.Since(start)
			m.inflight.Add(-1)
			status := sr.code()
			if panicked {
				status = http.StatusInternalServerError
			}
			m.latency.With(route, r.Method, statusClass(status)).ObserveDuration(d)
			m.opts.Tracer.Finish(tr, status, d)
			if m.opts.SlowRequest > 0 && d >= m.opts.SlowRequest {
				m.slow.With(route).Inc()
				args := []any{
					"request_id", id,
					"route", route,
					"method", r.Method,
					"status", status,
					"duration_ms", float64(d.Nanoseconds()) / 1e6,
					"threshold_ms", float64(m.opts.SlowRequest.Nanoseconds()) / 1e6,
				}
				// With tracing on, name the stages the time actually went to.
				if top := tr.TopSelf(3); len(top) > 0 {
					args = append(args, "top_spans", strings.Join(top, ","))
				}
				m.opts.Logger.Warn("slow request", args...)
			}
		}()
		next(sr, r)
		panicked = false
	}
}

// statusClass folds a status code into its Prometheus-friendly class
// label ("2xx", "4xx", ...): full codes would explode series cardinality
// without adding alerting value.
func statusClass(code int) string {
	if code < 100 || code > 599 {
		return "other"
	}
	return strconv.Itoa(code/100) + "xx"
}

// statusRecorder captures the status code a handler writes. It preserves
// http.Flusher, so a handler that streams its body can still flush
// through the middleware, and exposes Unwrap for http.ResponseController
// users.
type statusRecorder struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (s *statusRecorder) WriteHeader(code int) {
	if !s.wrote {
		s.status, s.wrote = code, true
	}
	s.ResponseWriter.WriteHeader(code)
}

func (s *statusRecorder) Write(b []byte) (int, error) {
	if !s.wrote {
		s.status, s.wrote = http.StatusOK, true
	}
	return s.ResponseWriter.Write(b)
}

func (s *statusRecorder) Flush() {
	if f, ok := s.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (s *statusRecorder) Unwrap() http.ResponseWriter { return s.ResponseWriter }

// code returns the recorded status, defaulting to 200 for handlers that
// never explicitly wrote one.
func (s *statusRecorder) code() int {
	if !s.wrote {
		return http.StatusOK
	}
	return s.status
}

// Handler returns the /metrics endpoint for a registry: the Prometheus
// text exposition of every registered family.
func Handler(r *Registry) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.Render(w)
	}
}
