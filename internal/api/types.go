package api

import (
	"context"
	"fmt"

	"repro/internal/npn"
	"repro/internal/tt"
)

// MaxBatch bounds the number of functions accepted in one batch request,
// on either transport. pkg/client sends a longer batch as consecutive
// requests of at most MaxBatch functions.
const MaxBatch = 1 << 16

// BatchRequest is the body of POST /v2/classify and POST /v2/insert: a
// batch of hexadecimal truth tables. Each function's arity is the one its
// hex length names (HexArity); which arities are served is the mounting
// stack's choice, expressed through its Backend.CheckArity.
type BatchRequest struct {
	Functions []string `json:"functions"`
}

// Witness is the wire form of an npn.Transform: a certificate τ with
// τ(rep) = function that a client can replay locally.
type Witness struct {
	// Perm maps result input i to representative input Perm[i].
	Perm []int `json:"perm"`
	// NegMask bit i complements input i.
	NegMask uint32 `json:"neg_mask"`
	// OutNeg complements the output.
	OutNeg bool `json:"out_neg"`
}

// NewWitness encodes a witness transform into its wire form.
func NewWitness(w npn.Transform) *Witness {
	perm := make([]int, w.N)
	for i := range perm {
		perm[i] = int(w.Perm[i])
	}
	return &Witness{Perm: perm, NegMask: w.NegMask, OutNeg: w.OutNeg}
}

// Transform decodes the wire witness back into an npn.Transform.
func (w *Witness) Transform() (npn.Transform, error) {
	n := len(w.Perm)
	if n > tt.MaxVars {
		return npn.Transform{}, fmt.Errorf("witness arity %d out of range", n)
	}
	tr := npn.Identity(n)
	for i, p := range w.Perm {
		if p < 0 || p >= n {
			return npn.Transform{}, fmt.Errorf("witness perm[%d] = %d out of range", i, p)
		}
		tr.Perm[i] = uint8(p)
	}
	tr.NegMask = w.NegMask
	tr.OutNeg = w.OutNeg
	if err := tr.Validate(); err != nil {
		return npn.Transform{}, err
	}
	return tr, nil
}

// ClassifyItem is one function's outcome in a /v2 classify response.
// Exactly one of two shapes appears on the wire: an error item
// ({"function", "error"}) when the function itself was unusable, or a
// result item carrying the class key (valid even on a miss) plus, on a
// hit, the chain index, representative and witness.
type ClassifyItem struct {
	Function string `json:"function"`
	// Error, when set, is this item's failure; the rest of the batch is
	// unaffected. The sibling result fields are zero.
	Error   *Error   `json:"error,omitempty"`
	Hit     bool     `json:"hit"`
	Class   string   `json:"class,omitempty"`
	Index   *int     `json:"index,omitempty"`
	Rep     string   `json:"rep,omitempty"`
	Witness *Witness `json:"witness,omitempty"`
}

// ClassifyResponse is the body of POST /v2/classify. Errors counts the
// items that carry per-item errors, so a client can cheaply detect a
// partially-failed batch without scanning.
type ClassifyResponse struct {
	Results []ClassifyItem `json:"results"`
	Errors  int            `json:"errors"`
}

// InsertItem is one function's outcome in a /v2 insert response. An item
// error (bad_hex, arity_out_of_range, not_durable) fails only that item.
type InsertItem struct {
	Function string `json:"function"`
	Error    *Error `json:"error,omitempty"`
	Class    string `json:"class,omitempty"`
	Index    int    `json:"index"`
	New      bool   `json:"new"`
}

// InsertResponse is the body of POST /v2/insert.
type InsertResponse struct {
	Results []InsertItem `json:"results"`
	Errors  int          `json:"errors"`
}

// Result is one function's classification outcome as a Backend reports
// it and DecodeBinaryClassify returns it — the transport-free twin of the
// pipeline's result, so this package does not depend on any particular
// serving stack.
type Result struct {
	// Key is the MSV class key (valid even on a miss).
	Key uint64
	// Index is the representative's chain position; meaningful on a hit.
	Index int
	// Hit reports whether the class is stored.
	Hit bool
	// Rep is the certified representative's table (hit only). The JSON
	// encoder renders its hex, the binary encoder packs it. Never mutated
	// by consumers.
	Rep *tt.TT
	// Witness is a transform τ with τ(Rep) = function (hit only).
	Witness npn.Transform
	// Err carries a per-item failure; the other fields are then zero.
	Err *Error
}

// itemError returns the result's per-item error, nil on success.
func (r Result) itemError() *Error { return r.Err }

// InsertOutcome is one function's insertion outcome as a Backend reports
// it and DecodeBinaryInsert returns it. Err carries a per-item failure
// (e.g. a forwarding follower relaying the primary's item error); Index <
// 0 with a nil Err means the store refused the insert (journal failure)
// and is reported as not_durable.
type InsertOutcome struct {
	Key   uint64
	Index int
	New   bool
	Err   *Error
}

// refused reports whether the store refused the insert (journal failure).
func (o InsertOutcome) refused() bool { return o.Err == nil && o.Index < 0 }

// itemError returns the outcome's per-item error, nil on success: the
// relayed Err, or not_durable for a refused insert. It is the one place
// not_durable items are minted, for both transports.
func (o InsertOutcome) itemError() *Error {
	if o.refused() {
		return Errf(CodeNotDurable, "insert refused: journal failure, class not stored durably")
	}
	return o.Err
}

// Backend is what a serving stack plugs into the shared /v2 batch
// handlers: the served arities with their error coding, and the batch
// pipeline operations. The context is the request's — a forwarding
// follower threads it into its primary calls.
//
// Classify and Insert return one entry per input, in order, or a
// whole-batch *Error for conditions that fail every item identically
// (read_only on a local-mode follower, primary_unreachable on a
// forwarding one, a failed store recovery).
type Backend interface {
	// CheckArity reports whether n-variable functions are served; both
	// request transports, and /v2/map?insert=true for its k, ask it
	// before any other work. A nil *Error must also make the arity's
	// store ready, so Classify/Insert on checked functions cannot fail
	// per item.
	CheckArity(n int) *Error
	Classify(ctx context.Context, fs []*tt.TT) ([]Result, *Error)
	Insert(ctx context.Context, fs []*tt.TT) ([]InsertOutcome, *Error)
}

// KeyHex renders a class key in its canonical 16-digit wire form.
func KeyHex(key uint64) string { return fmt.Sprintf("%016x", key) }

// NewClassifyItem encodes one function's JSON classify item: the
// per-item error e when set, otherwise the result r.
func NewClassifyItem(fn string, r Result, e *Error) ClassifyItem {
	if e != nil {
		return ClassifyItem{Function: fn, Error: e}
	}
	it := ClassifyItem{Function: fn, Hit: r.Hit, Class: KeyHex(r.Key)}
	if r.Hit {
		idx := r.Index
		it.Index = &idx
		it.Rep = r.Rep.Hex()
		it.Witness = NewWitness(r.Witness)
	}
	return it
}

// NewInsertItem encodes one function's JSON insert item: the per-item
// error e when set, otherwise the outcome o. A refused insert's item keeps
// its class key and index -1 next to the not_durable error.
func NewInsertItem(fn string, o InsertOutcome, e *Error) InsertItem {
	switch {
	case e == nil:
		return InsertItem{Function: fn, Class: KeyHex(o.Key), Index: o.Index, New: o.New}
	case o.refused():
		return InsertItem{Function: fn, Error: e, Class: KeyHex(o.Key), Index: -1}
	default:
		return InsertItem{Function: fn, Error: e}
	}
}

// HexDigits returns the wire length of an n-variable hex truth table:
// 2^n/4 digits, floored at one.
func HexDigits(n int) int {
	d := (1 << n) / 4
	if d == 0 {
		d = 1
	}
	return d
}

// HexArity is the inverse of HexDigits: the arity whose hex truth tables
// have the given number of digits. One digit means two variables (the
// widest table it holds); a length that is HexDigits(n) for no n in
// 2..tt.MaxVars reports ok=false.
func HexArity(digits int) (n int, ok bool) {
	for n := 2; n <= tt.MaxVars; n++ {
		if HexDigits(n) == digits {
			return n, true
		}
	}
	return 0, false
}

// MaxBodyBytes bounds the JSON batch request body for a stack whose
// largest accepted arity is n: a full MaxBatch of that arity's tables
// with JSON quoting and separators, plus envelope slack. Anything larger
// cannot be a valid request.
func MaxBodyBytes(n int) int64 {
	return int64(MaxBatch)*int64(HexDigits(n)+20) + (1 << 16)
}
