package api

import (
	"net/http"
	"strconv"

	"repro/internal/obs"
)

// HandleTraces serves GET /v2/debug/traces: the flight recorder's
// retained traces, newest first. Query filters: ?min_ms=N keeps traces
// at least N milliseconds long, ?route=PATTERN keeps one route (the
// exact mux pattern, e.g. /v2/classify). Filter parsing is lenient —
// a malformed min_ms reads as no filter — because this is a debug
// surface, not a contract.
func HandleTraces(t *obs.Tracer) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		minMs, _ := strconv.ParseFloat(q.Get("min_ms"), 64)
		WriteJSON(w, http.StatusOK, t.List(minMs, q.Get("route")))
	}
}

// HandleTrace serves GET /v2/debug/traces/{id}: one retained trace's
// full span tree, addressed by the request's X-Request-Id.
func HandleTrace(t *obs.Tracer) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		d, ok := t.Get(id)
		if !ok {
			WriteError(w, r, Errf(CodeNotFound, "no retained trace %q (evicted, sampled out, or never seen)", id))
			return
		}
		WriteJSON(w, http.StatusOK, d)
	}
}
