package api

import (
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

// readFramedBody reads a bounded binary request body. On failure it writes
// the error envelope and returns ok=false.
func readFramedBody(w http.ResponseWriter, r *http.Request, maxBody int64) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			WriteError(w, Errf(CodeBodyTooLarge, "request body exceeds %d bytes", tooLarge.Limit))
			return nil, false
		}
		WriteError(w, Errf(CodeBadRequest, "reading request body: %v", err))
		return nil, false
	}
	return body, true
}

// decodeNegotiated parses a classify/insert request body in whichever of
// the two transports the request declared, into the transport-free form
// both response encoders consume: fs[i] is input i's parsed function (nil
// when errs[i] carries its per-item error), fns[i] its hex echo for JSON
// responses (computed lazily for binary bodies), and crcEcho whether a
// binary response should carry the CRC trailer (mirroring the request
// frame). Envelope-level failures are written as JSON error envelopes —
// on both transports, so error-code handling never forks — and report
// ok=false.
func decodeNegotiated(b Backend, maxBody int64, w http.ResponseWriter, r *http.Request) (fs []*tt.TT, errs []*Error, fns []string, crcEcho bool, ok bool) {
	if IsBinaryRequest(r) {
		body, okBody := readFramedBody(w, r, maxBody)
		if !okBody {
			return nil, nil, nil, false, false
		}
		decoded, crc, err := DecodeBinaryRequest(body)
		if err != nil {
			WriteError(w, Errf(CodeBadRequest, "bad binary frame: %v", err))
			return nil, nil, nil, false, false
		}
		fs = decoded
		errs = make([]*Error, len(fs))
		for i, f := range fs {
			if e := b.CheckArity(f.NumVars()); e != nil {
				errs[i], fs[i] = e, nil
			}
		}
		return fs, errs, nil, crc, true
	}
	raw, okBody := DecodeBatch(w, r, maxBody)
	if !okBody {
		return nil, nil, nil, false, false
	}
	fs = make([]*tt.TT, len(raw))
	errs = make([]*Error, len(raw))
	for i, s := range raw {
		f, e := b.Resolve(s)
		if e != nil {
			errs[i] = e
		} else {
			fs[i] = f
		}
	}
	return fs, errs, raw, false, true
}

// fnEcho returns input i's hex echo for a JSON response: the request's own
// string when the body was JSON, the table's canonical hex when it arrived
// as a binary frame, empty when the item never parsed.
func fnEcho(fns []string, fs []*tt.TT, i int) string {
	if fns != nil {
		return fns[i]
	}
	if fs[i] != nil {
		return fs[i].Hex()
	}
	return ""
}

// writeBinary emits a binary response frame.
func writeBinary(w http.ResponseWriter, frame []byte) {
	w.Header().Set("Content-Type", BinaryContentType)
	w.WriteHeader(http.StatusOK)
	w.Write(frame)
}

// handleClassifyNegotiated serves POST /v2/classify when either side of
// the exchange is binary: binary body, binary Accept, or both. Whole-batch
// errors remain JSON envelopes at their usual status codes regardless of
// Accept, so clients keep one error decode path.
func handleClassifyNegotiated(b Backend, maxBody int64, w http.ResponseWriter, r *http.Request) {
	fs, errs, fns, crcEcho, ok := decodeNegotiated(b, maxBody, w, r)
	if !ok {
		return
	}
	reqID := obs.RequestIDFromContext(r.Context())
	var valid []*tt.TT
	var validIdx []int
	nErr := 0
	for i, f := range fs {
		if f != nil {
			valid = append(valid, f)
			validIdx = append(validIdx, i)
		} else {
			errs[i] = errs[i].WithRequestID(reqID)
			nErr++
		}
	}
	res := make([]Result, len(fs))
	if len(valid) > 0 {
		results, batchErr := b.Classify(r.Context(), valid)
		if batchErr != nil {
			WriteError(w, batchErr.WithRequestID(reqID))
			return
		}
		for j, rr := range results {
			res[validIdx[j]] = rr
		}
	}
	if AcceptsBinary(r) {
		writeBinary(w, EncodeBinaryClassify(res, errs, crcEcho))
		return
	}
	items := make([]ClassifyItem, len(fs))
	for i := range fs {
		fn := fnEcho(fns, fs, i)
		if errs[i] != nil {
			items[i] = ClassifyItem{Function: fn, Error: errs[i]}
		} else {
			items[i] = classifyItem(fn, res[i])
		}
	}
	WriteJSON(w, http.StatusOK, ClassifyResponse{Results: items, Errors: nErr})
}

// handleInsertNegotiated is handleClassifyNegotiated's insert twin.
func handleInsertNegotiated(b Backend, maxBody int64, w http.ResponseWriter, r *http.Request) {
	fs, errs, fns, crcEcho, ok := decodeNegotiated(b, maxBody, w, r)
	if !ok {
		return
	}
	reqID := obs.RequestIDFromContext(r.Context())
	var valid []*tt.TT
	var validIdx []int
	nErr := 0
	for i, f := range fs {
		if f != nil {
			valid = append(valid, f)
			validIdx = append(validIdx, i)
		} else {
			errs[i] = errs[i].WithRequestID(reqID)
			nErr++
		}
	}
	out := make([]InsertOutcome, len(fs))
	if len(valid) > 0 {
		outcomes, batchErr := b.Insert(r.Context(), valid)
		if batchErr != nil {
			WriteError(w, batchErr.WithRequestID(reqID))
			return
		}
		for j, o := range outcomes {
			o.Err = o.Err.WithRequestID(reqID)
			out[validIdx[j]] = o
		}
	}
	if AcceptsBinary(r) {
		writeBinary(w, EncodeBinaryInsert(out, errs, crcEcho))
		return
	}
	items := make([]InsertItem, len(fs))
	for i := range fs {
		fn := fnEcho(fns, fs, i)
		if errs[i] != nil {
			items[i] = InsertItem{Function: fn, Error: errs[i]}
		} else {
			items[i] = insertItem(fn, out[i])
			if items[i].Error != nil {
				nErr++
			}
		}
	}
	WriteJSON(w, http.StatusOK, InsertResponse{Results: items, Errors: nErr})
}
