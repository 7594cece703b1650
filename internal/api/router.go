package api

import (
	"encoding/json"
	"mime"
	"net/http"
	"sort"
	"strings"

	"repro/internal/obs"
)

// Version is the current API version identifier, the prefix of every new
// endpoint.
const Version = "v2"

// Route describes one mounted endpoint, as published by GET /v2/spec.
type Route struct {
	Method  string `json:"method"`
	Pattern string `json:"pattern"`
	Desc    string `json:"desc,omitempty"`
}

// Spec is the body of GET /v2/spec: the server's self-description — its
// role, every mounted route, and the error-code taxonomy. CI asserts the
// route list covers the live mux; it does by construction, because the
// Router derives both from the same registrations.
type Spec struct {
	Service    string   `json:"service"`
	APIVersion string   `json:"api_version"`
	Role       string   `json:"role"`
	Routes     []Route  `json:"routes"`
	ErrorCodes []string `json:"error_codes"`
	// Docs points at the normative wire specification for this surface —
	// the byte-level contract (JSON envelopes, the binary frame format)
	// that the route list only names.
	Docs string `json:"docs,omitempty"`
	// BinaryContentType is the media type of the length-framed binary
	// transport accepted and produced by /v2/classify and /v2/insert.
	BinaryContentType string `json:"binary_content_type,omitempty"`
}

// Router is the shared HTTP mount point of every serving stack: routes
// are registered per (method, pattern), unmatched paths answer the JSON
// not_found envelope instead of Go's plain-text 404, a matched pattern
// asked with the wrong method answers the JSON method_not_allowed
// envelope with an Allow header, and the registrations double as the
// GET /v2/spec self-description.
type Router struct {
	role    string
	mux     *http.ServeMux
	methods map[string]map[string]http.HandlerFunc // pattern -> method -> handler
	routes  []Route
	mw      []Middleware
}

// Middleware wraps one route's dispatch. It receives the registered
// pattern (not the concrete URL — "/v2/classify", never a per-request
// path, so metric label cardinality stays bounded) and the next handler.
// The signature is a plain func type so an implementation (obs's HTTP
// metrics) never has to import this package.
type Middleware func(route string, next http.HandlerFunc) http.HandlerFunc

// UnmatchedRoute is the route label middleware sees for requests no
// pattern matched (the JSON 404 fallback) — one bounded label instead of
// an attacker-controlled URL space.
const UnmatchedRoute = "unmatched"

// NewRouter returns an empty router for a stack with the given role
// ("federated", "follower").
func NewRouter(role string) *Router {
	rt := &Router{
		role:    role,
		mux:     http.NewServeMux(),
		methods: make(map[string]map[string]http.HandlerFunc),
	}
	rt.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		rt.wrap(UnmatchedRoute, func(w http.ResponseWriter, r *http.Request) {
			WriteError(w, r, Errf(CodeNotFound, "no route for %s", r.URL.Path))
		})(w, r)
	})
	return rt
}

// Use appends a middleware applied to every route — registered before or
// after the Use call — including the 404 fallback and the 405 path.
// Middleware run in Use order, outermost first. Use must be called
// before the router starts serving; it is not safe concurrently with
// ServeHTTP.
func (rt *Router) Use(mw Middleware) { rt.mw = append(rt.mw, mw) }

// wrap applies the middleware chain to a handler under a route label.
func (rt *Router) wrap(route string, h http.HandlerFunc) http.HandlerFunc {
	for i := len(rt.mw) - 1; i >= 0; i-- {
		h = rt.mw[i](route, h)
	}
	return h
}

// Handle mounts h at method+pattern (a net/http ServeMux pattern, may
// hold {wildcards}) and records it in the spec. Registering two handlers
// for the same method and pattern panics, like ServeMux.
func (rt *Router) Handle(method, pattern, desc string, h http.HandlerFunc) {
	byMethod, ok := rt.methods[pattern]
	if !ok {
		byMethod = make(map[string]http.HandlerFunc)
		rt.methods[pattern] = byMethod
		rt.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
			// Wrapped per request so Use works regardless of registration
			// order; the chain is short and the closures are cheap next to
			// serving the request.
			rt.wrap(pattern, func(w http.ResponseWriter, r *http.Request) {
				rt.dispatch(byMethod, w, r)
			})(w, r)
		})
	}
	if _, dup := byMethod[method]; dup {
		panic("api: duplicate route " + method + " " + pattern)
	}
	byMethod[method] = h
	rt.routes = append(rt.routes, Route{Method: method, Pattern: pattern, Desc: desc})
}

// dispatch picks the method's handler, or answers method_not_allowed with
// the Allow header listing what the pattern does serve.
func (rt *Router) dispatch(byMethod map[string]http.HandlerFunc, w http.ResponseWriter, r *http.Request) {
	if h, ok := byMethod[r.Method]; ok {
		h(w, r)
		return
	}
	allow := make([]string, 0, len(byMethod))
	for m := range byMethod {
		allow = append(allow, m)
	}
	sort.Strings(allow)
	w.Header().Set("Allow", strings.Join(allow, ", "))
	WriteError(w, r, Errf(CodeMethodNotAllowed, "method %s not allowed", r.Method).
		WithDetail("allowed: %s", strings.Join(allow, ", ")))
}

// MountSpec registers GET /v2/spec, serving the router's own route table.
// Call it after every other registration... or before: the spec is built
// per request, so it always reflects the final table.
func (rt *Router) MountSpec() {
	rt.Handle("GET", "/v2/spec", "API self-description: routes and error codes",
		func(w http.ResponseWriter, r *http.Request) {
			WriteJSON(w, http.StatusOK, rt.Spec())
		})
}

// ServeHTTP implements http.Handler.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rt.mux.ServeHTTP(w, r)
}

// Routes returns the registered routes in registration order.
func (rt *Router) Routes() []Route {
	out := make([]Route, len(rt.routes))
	copy(out, rt.routes)
	return out
}

// Spec returns the self-description served at GET /v2/spec.
func (rt *Router) Spec() Spec {
	codes := Codes()
	cs := make([]string, len(codes))
	for i, c := range codes {
		cs[i] = string(c)
	}
	return Spec{
		Service: "npnserve", APIVersion: Version, Role: rt.role,
		Routes: rt.Routes(), ErrorCodes: cs,
		Docs:              "docs/WIRE.md",
		BinaryContentType: BinaryContentType,
	}
}

// WriteJSON emits a JSON response with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers are sent; nothing recoverable remains.
		return
	}
}

// WriteError emits the {"error": {...}} envelope at the code's status,
// stamped with r's request ID (obs.RequestIDFromContext), so every
// envelope carries the ID its X-Request-Id header echoes.
func WriteError(w http.ResponseWriter, r *http.Request, e *Error) {
	e = e.WithRequestID(obs.RequestIDFromContext(r.Context()))
	WriteJSON(w, e.HTTPStatus(), ErrorEnvelope{Error: e})
}

// CheckContentType gates a request on its Content-Type: a missing header
// always passes (curl-friendliness), a present one must have one of the
// accepted media types. On failure it writes the unsupported_media_type
// envelope and returns false.
func CheckContentType(w http.ResponseWriter, r *http.Request, accepted ...string) bool {
	ct := r.Header.Get("Content-Type")
	if ct == "" {
		return true
	}
	mt, _, err := mime.ParseMediaType(ct)
	if err == nil {
		for _, a := range accepted {
			if mt == a {
				return true
			}
		}
	}
	WriteError(w, r, Errf(CodeUnsupportedMediaType, "content type %q not accepted", ct).
		WithDetail("accepted: %s", strings.Join(accepted, ", ")))
	return false
}
