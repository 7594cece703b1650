package api

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"mime"
	"net/http"
	"strings"

	"repro/internal/obs"
	"repro/internal/tt"
)

// IsBinaryRequest reports whether the request body is a binary frame
// (Content-Type: application/x-npn-binary).
func IsBinaryRequest(r *http.Request) bool {
	mt, _, err := mime.ParseMediaType(r.Header.Get("Content-Type"))
	return err == nil && mt == BinaryContentType
}

// AcceptsBinary reports whether the client asked for a binary response
// body: the Accept header explicitly lists the binary media type. A bare
// */* stays JSON — binary is strictly opt-in.
func AcceptsBinary(r *http.Request) bool {
	accept := r.Header.Get("Accept")
	if accept == "" {
		return false
	}
	for _, part := range strings.Split(accept, ",") {
		mt, _, err := mime.ParseMediaType(strings.TrimSpace(part))
		if err == nil && mt == BinaryContentType {
			return true
		}
	}
	return false
}

// batch is one decoded /v2/classify or /v2/insert request in the
// transport-free form both response encoders consume.
type batch struct {
	// fs[i] is input i's function, nil when errs[i] holds its per-item
	// error.
	fs   []*tt.TT
	errs []*Error
	// hex holds a JSON request's own strings, which JSON responses echo;
	// nil for a binary frame.
	hex []string
	// crc mirrors the request frame's CRC flag onto a binary response.
	crc bool
}

// echo returns input i's function as a JSON response echoes it: the
// request's own string, or the table's canonical hex when the request
// was a binary frame (empty when the item never parsed).
func (in batch) echo(i int) string {
	if in.hex != nil {
		return in.hex[i]
	}
	if in.fs[i] != nil {
		return in.fs[i].Hex()
	}
	return ""
}

// decodeBatch parses a classify/insert request body in whichever of the
// two transports the request declared. Envelope failures (content type,
// byte bound, malformed JSON or frame, empty batch, MaxBatch) are
// whole-request errors written as JSON error envelopes, on both
// transports, and report ok=false. A function whose arity is not served
// becomes a per-item error from b.CheckArity, whether the arity came from
// the frame's arity byte or from the hex length (HexArity).
func decodeBatch(b Backend, maxBody int64, w http.ResponseWriter, r *http.Request) (batch, bool) {
	if IsBinaryRequest(r) {
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
		if err != nil {
			writeBodyError(w, r, err)
			return batch{}, false
		}
		fs, crc, err := DecodeBinaryRequest(body)
		if err != nil {
			WriteError(w, r, Errf(CodeBadRequest, "bad binary frame: %v", err))
			return batch{}, false
		}
		in := batch{fs: fs, errs: make([]*Error, len(fs)), crc: crc}
		for i, f := range fs {
			if e := b.CheckArity(f.NumVars()); e != nil {
				in.errs[i], in.fs[i] = e, nil
			}
		}
		return in, true
	}

	if !CheckContentType(w, r, "application/json") {
		return batch{}, false
	}
	var req BatchRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeBodyError(w, r, err)
		return batch{}, false
	}
	// The envelope must be the whole body: a second value after it would
	// otherwise be dropped unanswered. Trailing whitespace is fine.
	if _, err := dec.Token(); err != io.EOF {
		if err == nil {
			err = errors.New("data after the request envelope")
		}
		writeBodyError(w, r, err)
		return batch{}, false
	}
	if len(req.Functions) == 0 {
		WriteError(w, r, Errf(CodeBadRequest, "functions must be a non-empty array of hex truth tables"))
		return batch{}, false
	}
	if len(req.Functions) > MaxBatch {
		WriteError(w, r, Errf(CodeBatchTooLarge, "batch of %d exceeds limit %d", len(req.Functions), MaxBatch).
			WithDetail("split larger batches into requests of at most %d functions", MaxBatch))
		return batch{}, false
	}
	in := batch{
		fs:   make([]*tt.TT, len(req.Functions)),
		errs: make([]*Error, len(req.Functions)),
		hex:  req.Functions,
	}
	for i, s := range req.Functions {
		n, ok := HexArity(len(s))
		if !ok {
			in.errs[i] = Errf(CodeArityOutOfRange, "hex truth table of %d digits matches no federated arity", len(s)).
				WithDetail("an n-variable table has max(1, 2^n/4) hex digits")
			continue
		}
		if e := b.CheckArity(n); e != nil {
			in.errs[i] = e
			continue
		}
		f, err := tt.FromHex(n, s)
		if err != nil {
			in.errs[i] = Errf(CodeBadHex, "%v", err)
			continue
		}
		in.fs[i] = f
	}
	return in, true
}

// writeBodyError answers a failed request-body read: body_too_large when
// the byte bound tripped, bad_request otherwise.
func writeBodyError(w http.ResponseWriter, r *http.Request, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		WriteError(w, r, Errf(CodeBodyTooLarge, "request body exceeds %d bytes", tooLarge.Limit))
		return
	}
	WriteError(w, r, Errf(CodeBadRequest, "bad request body: %v", err))
}

// runBatch calls op once on the inputs of in that parsed and scatters its
// per-input outcomes back to input order. itemErr names an outcome's own
// per-item error, which is folded into in.errs so the encoders never mint
// one. Every per-item error is then stamped with the request ID and
// counted in nErr. A whole-batch error from op is written as the error
// envelope and reports ok=false.
func runBatch[T any](w http.ResponseWriter, r *http.Request, in batch,
	op func(context.Context, []*tt.TT) ([]T, *Error), itemErr func(T) *Error) (out []T, nErr int, ok bool) {
	reqID := obs.RequestIDFromContext(r.Context())
	valid := make([]*tt.TT, 0, len(in.fs))
	for _, f := range in.fs {
		if f != nil {
			valid = append(valid, f)
		}
	}
	out = make([]T, len(in.fs))
	if len(valid) > 0 {
		got, batchErr := op(r.Context(), valid)
		if batchErr != nil {
			WriteError(w, r, batchErr)
			return nil, 0, false
		}
		j := 0
		for i, f := range in.fs {
			if f == nil {
				continue
			}
			out[i] = got[j]
			j++
			in.errs[i] = itemErr(out[i])
		}
	}
	for i, e := range in.errs {
		if e != nil {
			in.errs[i] = e.WithRequestID(reqID)
			nErr++
		}
	}
	return out, nErr, true
}

// writeBinary emits a binary response frame.
func writeBinary(w http.ResponseWriter, frame []byte) {
	w.Header().Set("Content-Type", BinaryContentType)
	w.WriteHeader(http.StatusOK)
	w.Write(frame)
}

// HandleClassify returns the POST /v2/classify handler over b: a batch
// lookup where one bad truth table fails only its own item. The endpoint
// speaks two transports, negotiated per request: the JSON envelope
// (default) and the length-framed binary format of docs/WIRE.md
// (Content-Type selects the request decoding, Accept the response
// encoding, and the two sides mix freely). Every combination takes the
// same path: decode, one backend call, encode. Whole-batch errors are
// JSON envelopes at their usual status codes regardless of Accept, so
// clients keep one error decode path.
func HandleClassify(b Backend, maxBody int64) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		in, ok := decodeBatch(b, maxBody, w, r)
		if !ok {
			return
		}
		res, nErr, ok := runBatch(w, r, in, b.Classify, Result.itemError)
		if !ok {
			return
		}
		if AcceptsBinary(r) {
			writeBinary(w, EncodeBinaryClassify(res, in.errs, in.crc))
			return
		}
		items := make([]ClassifyItem, len(res))
		for i := range res {
			items[i] = NewClassifyItem(in.echo(i), res[i], in.errs[i])
		}
		WriteJSON(w, http.StatusOK, ClassifyResponse{Results: items, Errors: nErr})
	}
}

// HandleInsert returns the POST /v2/insert handler over b. Per-item
// failures (bad_hex, arity_out_of_range, not_durable, an error a
// forwarding follower relays) are reported inside a 200 response;
// whole-batch conditions (read_only, primary_unreachable) are error
// envelopes. It negotiates the transports exactly as HandleClassify does.
func HandleInsert(b Backend, maxBody int64) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		in, ok := decodeBatch(b, maxBody, w, r)
		if !ok {
			return
		}
		out, nErr, ok := runBatch(w, r, in, b.Insert, InsertOutcome.itemError)
		if !ok {
			return
		}
		if AcceptsBinary(r) {
			writeBinary(w, EncodeBinaryInsert(out, in.errs, in.crc))
			return
		}
		items := make([]InsertItem, len(out))
		for i := range out {
			items[i] = NewInsertItem(in.echo(i), out[i], in.errs[i])
		}
		WriteJSON(w, http.StatusOK, InsertResponse{Results: items, Errors: nErr})
	}
}
