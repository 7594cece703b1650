// Package api is the versioned wire contract of the serving stack: the
// typed request/response envelopes, the machine-readable error taxonomy,
// the Router that mounts every endpoint (with a JSON 404/405 fallback and
// a self-describing GET /v2/spec), the shared /v2 batch handlers with
// per-item errors over the JSON envelope and the binary frame, and the
// /v2/map circuit-mapping endpoint. Both handler stacks —
// internal/federation (the primary, any arity range) and
// internal/replica (the follower) — mount their routes through this
// package, so the wire format cannot diverge between them, and
// pkg/client is its consumer on the client side.
//
// Versioning: /v2 is the only API version. The replication feed a
// primary serves under /v1/wal/ is an internal protocol, not a version
// of this contract.
package api

import (
	"fmt"
	"net/http"
)

// Code is a stable machine-readable error code. Codes are part of the
// wire contract: clients switch on them, so existing codes never change
// meaning and removals are breaking.
type Code string

const (
	// CodeBadRequest is a malformed request envelope (bad JSON, unknown
	// fields, empty batch, bad query parameter).
	CodeBadRequest Code = "bad_request"
	// CodeBadHex is a function string that is not valid hexadecimal for
	// its claimed length.
	CodeBadHex Code = "bad_hex"
	// CodeArityOutOfRange is a function (or mapping arity) outside the
	// server's served arity range.
	CodeArityOutOfRange Code = "arity_out_of_range"
	// CodeBatchTooLarge is a batch exceeding MaxBatch functions.
	CodeBatchTooLarge Code = "batch_too_large"
	// CodeBodyTooLarge is a request body exceeding the byte bound.
	CodeBodyTooLarge Code = "body_too_large"
	// CodeUnsupportedMediaType is a request whose Content-Type the
	// endpoint does not accept.
	CodeUnsupportedMediaType Code = "unsupported_media_type"
	// CodeReadOnly is a write refused because the server does not accept
	// it: an insert on a follower in local mode, or compaction asked of
	// any follower.
	CodeReadOnly Code = "read_only"
	// CodeNotDurable is a write that could not be made durable (journal
	// failure, or a durability operation on a memory-only server).
	CodeNotDurable Code = "not_durable"
	// CodeBadCircuit is an AIGER body that does not parse or cannot be
	// mapped.
	CodeBadCircuit Code = "bad_circuit"
	// CodeVerifyFailed is a mapping that failed functional verification —
	// a server-side bug surfaced rather than an answer served.
	CodeVerifyFailed Code = "verify_failed"
	// CodeNotFound is an unmatched route.
	CodeNotFound Code = "not_found"
	// CodeMethodNotAllowed is a matched route asked with the wrong method.
	CodeMethodNotAllowed Code = "method_not_allowed"
	// CodePrimaryUnreachable is a follower that could not reach its
	// primary for a forwarded write.
	CodePrimaryUnreachable Code = "primary_unreachable"
	// CodeUnauthorized is a request refused at the edge for missing or
	// invalid API credentials (the Authorization: Bearer key).
	CodeUnauthorized Code = "unauthorized"
	// CodeRateLimited is a request refused by admission control — the
	// client's token bucket is empty, or the server is shedding load.
	// Responses carry a Retry-After header with the earliest useful
	// moment to try again.
	CodeRateLimited Code = "rate_limited"
	// CodeInternal is an unexpected server-side failure.
	CodeInternal Code = "internal"
)

// Codes lists every stable error code, in the order documented. The spec
// endpoint publishes this list so clients can enumerate the taxonomy.
func Codes() []Code {
	return []Code{
		CodeBadRequest, CodeBadHex, CodeArityOutOfRange, CodeBatchTooLarge,
		CodeBodyTooLarge, CodeUnsupportedMediaType, CodeReadOnly,
		CodeNotDurable, CodeBadCircuit, CodeVerifyFailed, CodeNotFound,
		CodeMethodNotAllowed, CodePrimaryUnreachable, CodeUnauthorized,
		CodeRateLimited, CodeInternal,
	}
}

// Error is the wire error: a stable code, a human-readable message and an
// optional machine-oriented detail (e.g. the accepted hex lengths). It is
// both the body of every non-2xx /v2 response — wrapped as
// {"error": {...}} — and the per-item error object inside /v2 batch
// responses.
type Error struct {
	Code    Code   `json:"code"`
	Message string `json:"message"`
	Detail  string `json:"detail,omitempty"`
	// RequestID correlates the error with the request that produced it:
	// the ID the obs middleware stamped (or the caller supplied via
	// X-Request-Id). WriteError sets it on every envelope and runBatch on
	// every per-item batch error, on both transports, so one grep finds a
	// failed request or item and its slow-request log line alike.
	RequestID string `json:"request_id,omitempty"`
}

// Error implements the error interface, so an *Error travels through
// ordinary Go error plumbing (and pkg/client returns it as-is).
func (e *Error) Error() string {
	if e.Detail != "" {
		return fmt.Sprintf("%s: %s (%s)", e.Code, e.Message, e.Detail)
	}
	return fmt.Sprintf("%s: %s", e.Code, e.Message)
}

// Errf builds an Error with a formatted message.
func Errf(code Code, format string, args ...any) *Error {
	return &Error{Code: code, Message: fmt.Sprintf(format, args...)}
}

// WithDetail returns a copy of e carrying the formatted detail.
func (e *Error) WithDetail(format string, args ...any) *Error {
	cp := *e
	cp.Detail = fmt.Sprintf(format, args...)
	return &cp
}

// WithRequestID returns e carrying the request ID — a copy when stamping
// is needed, e itself when id is empty or already present. Nil-safe, so
// call sites can stamp unconditionally: items without errors pass
// through untouched. Copying matters: backends may hand out shared
// *Error values, which must not mutate under one request's ID.
func (e *Error) WithRequestID(id string) *Error {
	if e == nil || id == "" || e.RequestID == id {
		return e
	}
	cp := *e
	cp.RequestID = id
	return &cp
}

// HTTPStatus maps the code to its response status. Per-item errors inside
// a 200 batch response never reach this; it applies when an Error is the
// whole response. Every registered code has an explicit case (the
// errtaxonomy analyzer enforces this): the default exists only for a
// code minted outside the taxonomy, which is itself a server bug and is
// reported as one.
func (e *Error) HTTPStatus() int {
	switch e.Code {
	case CodeBadRequest, CodeBadHex, CodeArityOutOfRange, CodeBatchTooLarge, CodeBadCircuit:
		return http.StatusBadRequest
	case CodeBodyTooLarge:
		return http.StatusRequestEntityTooLarge
	case CodeUnsupportedMediaType:
		return http.StatusUnsupportedMediaType
	case CodeReadOnly:
		return http.StatusForbidden
	case CodeNotDurable:
		return http.StatusConflict
	case CodeNotFound:
		return http.StatusNotFound
	case CodeMethodNotAllowed:
		return http.StatusMethodNotAllowed
	case CodePrimaryUnreachable:
		return http.StatusBadGateway
	case CodeUnauthorized:
		return http.StatusUnauthorized
	case CodeRateLimited:
		return http.StatusTooManyRequests
	case CodeVerifyFailed, CodeInternal:
		return http.StatusInternalServerError
	default: // unregistered code: a server bug, not a client error
		return http.StatusInternalServerError
	}
}

// ErrorEnvelope is the body of every non-2xx /v2 response:
// {"error": {"code": ..., "message": ..., "detail": ...}}.
type ErrorEnvelope struct {
	Error *Error `json:"error"`
}
