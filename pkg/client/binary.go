package client

import (
	"context"
	"fmt"
	"net/http"

	"repro/internal/api"
	"repro/internal/tt"
)

// The client negotiates the length-framed binary transport of
// docs/WIRE.md: when every function in a batch names its arity
// unambiguously, Classify and Insert send a binary frame and ask for a
// binary response. A server that refuses the frame answers with its own
// *api.Error (unsupported_media_type), which is returned as is;
// WithJSONTransport pins the JSON envelope instead.

// parseBinaryBatch parses a hex batch into truth tables with the arity
// each hex length names (api.HexArity). It reports ok=false — meaning
// "send this batch as JSON" — when any function cannot travel in a
// binary frame with full fidelity: a one-digit table (its arity,
// ambiguous across 0–2, is the server's to read), a length that names no
// arity, or hex that does not parse (the JSON path owns the canonical
// arity and bad_hex errors). An empty batch also goes JSON for its
// canonical error.
func parseBinaryBatch(fns []string) ([]*tt.TT, bool) {
	if len(fns) == 0 {
		return nil, false
	}
	fs := make([]*tt.TT, len(fns))
	for i, s := range fns {
		n, ok := api.HexArity(len(s))
		if !ok || len(s) < 2 {
			return nil, false
		}
		f, err := tt.FromHex(n, s)
		if err != nil {
			return nil, false
		}
		fs[i] = f
	}
	return fs, true
}

// postBinary sends one binary-framed batch and returns the binary
// response body.
func (c *Client) postBinary(ctx context.Context, path string, fs []*tt.TT) ([]byte, error) {
	frame := api.EncodeBinaryRequest(fs, false)
	status, resp, err := c.doAccept(ctx, http.MethodPost, path,
		api.BinaryContentType, api.BinaryContentType, frame)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, decodeAPIError(status, resp)
	}
	return resp, nil
}

// classifyBinary runs one classify batch over the binary transport and
// reshapes the decoded frame, through the server's own item encoder, into
// the same ClassifyResponse the JSON path returns, echoing the caller's
// own hex strings.
func (c *Client) classifyBinary(ctx context.Context, fns []string, fs []*tt.TT) (*api.ClassifyResponse, error) {
	body, err := c.postBinary(ctx, "/v2/classify", fs)
	if err != nil {
		return nil, err
	}
	res, err := api.DecodeBinaryClassify(body)
	if err != nil {
		return nil, fmt.Errorf("client: decoding binary classify response: %w", err)
	}
	if len(res) != len(fns) {
		return nil, fmt.Errorf("client: binary classify response has %d items, want %d", len(res), len(fns))
	}
	out := &api.ClassifyResponse{Results: make([]api.ClassifyItem, len(res))}
	for i, r := range res {
		out.Results[i] = api.NewClassifyItem(fns[i], r, r.Err)
		if r.Err != nil {
			out.Errors++
		}
	}
	return out, nil
}

// insertBinary is classifyBinary's insert twin.
func (c *Client) insertBinary(ctx context.Context, fns []string, fs []*tt.TT) (*api.InsertResponse, error) {
	body, err := c.postBinary(ctx, "/v2/insert", fs)
	if err != nil {
		return nil, err
	}
	res, err := api.DecodeBinaryInsert(body)
	if err != nil {
		return nil, fmt.Errorf("client: decoding binary insert response: %w", err)
	}
	if len(res) != len(fns) {
		return nil, fmt.Errorf("client: binary insert response has %d items, want %d", len(res), len(fns))
	}
	out := &api.InsertResponse{Results: make([]api.InsertItem, len(res))}
	for i, o := range res {
		out.Results[i] = api.NewInsertItem(fns[i], o, o.Err)
		if o.Err != nil {
			out.Errors++
		}
	}
	return out, nil
}
