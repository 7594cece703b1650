package api

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"sort"
	"strconv"

	"repro/internal/aig"
	"repro/internal/mapper"
	"repro/internal/tt"
)

// Mapper-as-a-service: POST /v2/map accepts an ASCII-AIGER circuit body,
// runs the k-LUT technology mapper (internal/mapper) and returns the LUT
// network, depth/area stats and the NPN class census — the paper's
// workload loop (map a circuit, classify every LUT function) as one HTTP
// round trip. With ?insert=true the discovered LUT classes are inserted
// into the serving store, so mapping traffic warms the classifier for the
// next circuit.

// DefaultMaxBody is the byte bound on /v2/map AIGER uploads when a stack
// mounts HandleMap without an explicit limit (npnserve's -max-body flag
// overrides it). The batch endpoints keep their arity-derived bounds.
const DefaultMaxBody int64 = 64 << 20

// mapVerifyWords and mapVerifySeed parameterize sampled verification for
// circuits too wide to verify exhaustively.
const (
	mapVerifyWords = 64
	mapVerifySeed  = 1
)

// maxExhaustivePIs is the widest circuit verified exhaustively; beyond it
// the mapping is checked by random simulation (VerifySampled).
const maxExhaustivePIs = 14

// MapParams are the query parameters of POST /v2/map, mirroring
// cmd/npnmap's flags.
type MapParams struct {
	// K is the LUT size (cut width); 0 means 6.
	K int
	// Mode is "depth" (default) or "area".
	Mode string
	// Cuts is the priority cuts kept per node; 0 means 8.
	Cuts int
	// Insert asks the server to insert the discovered LUT classes into
	// its store.
	Insert bool
}

// CircuitInfo describes the uploaded circuit.
type CircuitInfo struct {
	PIs  int `json:"pis"`
	POs  int `json:"pos"`
	Ands int `json:"ands"`
}

// LUTJSON is one lookup table of the mapping on the wire.
type LUTJSON struct {
	Root uint32 `json:"root"`
	// Leaves feed the LUT in function variable order.
	Leaves []uint32 `json:"leaves"`
	// Function is the LUT's local function over Vars variables, in hex.
	Function string `json:"function"`
	Vars     int    `json:"vars"`
	// Class is the function's NPN class key (computed at width K).
	Class string `json:"class"`
}

// ClassCount is one row of the NPN class census, ordered by descending
// count (key ascending on ties).
type ClassCount struct {
	Class string `json:"class"`
	Count int    `json:"count"`
}

// MapInsertSummary reports what ?insert=true stored.
type MapInsertSummary struct {
	// Functions is how many distinct K-ary LUT functions were offered.
	Functions int `json:"functions"`
	// ClassesCreated counts the classes that were new to the store.
	ClassesCreated int `json:"classes_created"`
	// Errors counts functions the store refused (e.g. not_durable).
	Errors int `json:"errors"`
}

// MapResponse is the body of POST /v2/map.
type MapResponse struct {
	Circuit CircuitInfo `json:"circuit"`
	K       int         `json:"k"`
	Mode    string      `json:"mode"`
	Cuts    int         `json:"cuts"`

	LUTs  []LUTJSON `json:"luts"`
	Area  int       `json:"area"`
	Depth int       `json:"depth"`

	// Funcs counts distinct local functions before classification;
	// Classes is the census that makes cell-library lookup feasible.
	Funcs   int          `json:"funcs"`
	Classes []ClassCount `json:"classes"`

	// Verified reports that the LUT network was checked functionally
	// equivalent to the uploaded circuit before this response was sent;
	// VerifyMethod is "exhaustive" or "sampled".
	Verified     bool   `json:"verified"`
	VerifyMethod string `json:"verify_method"`

	Inserted *MapInsertSummary `json:"inserted,omitempty"`
}

// MapConfig wires HandleMap into a serving stack.
type MapConfig struct {
	// MaxBody bounds the AIGER upload; zero or negative means
	// DefaultMaxBody.
	MaxBody int64
	// Insert, when non-nil, stores the K-ary LUT functions on
	// ?insert=true: its CheckArity(K) is asked before any mapping work,
	// and its Insert gets the map request's context, so a forwarding
	// follower's primary round trip dies with the client. Nil (a stack
	// that cannot write, e.g. a read-only follower) makes ?insert=true
	// fail with read_only, also before any mapping work.
	Insert Backend
}

// ParseMapParams reads and validates the query parameters.
func ParseMapParams(r *http.Request) (MapParams, *Error) {
	p := MapParams{K: 6, Mode: "depth", Cuts: 8}
	q := r.URL.Query()
	if s := q.Get("k"); s != "" {
		k, err := strconv.Atoi(s)
		if err != nil {
			return p, Errf(CodeBadRequest, "bad k %q: %v", s, err)
		}
		if k < 2 || k > tt.MaxVars {
			return p, Errf(CodeArityOutOfRange, "k=%d outside 2..%d", k, tt.MaxVars)
		}
		p.K = k
	}
	if s := q.Get("mode"); s != "" {
		if s != "depth" && s != "area" {
			return p, Errf(CodeBadRequest, "mode %q: want \"depth\" or \"area\"", s)
		}
		p.Mode = s
	}
	if s := q.Get("cuts"); s != "" {
		c, err := strconv.Atoi(s)
		if err != nil || c < 1 || c > 64 {
			return p, Errf(CodeBadRequest, "cuts %q: want an integer in 1..64", s)
		}
		p.Cuts = c
	}
	if s := q.Get("insert"); s != "" {
		v, err := strconv.ParseBool(s)
		if err != nil {
			return p, Errf(CodeBadRequest, "insert %q: want a boolean", s)
		}
		p.Insert = v
	}
	return p, nil
}

// HandleMap returns the POST /v2/map handler: parse the AIGER body, map
// it to K-LUTs, functionally verify the result, optionally insert the
// discovered classes, and answer with the network plus census. The body
// content type must be empty, text/plain or application/octet-stream —
// the upload is a circuit, not JSON.
func HandleMap(cfg MapConfig) http.HandlerFunc {
	maxBody := cfg.MaxBody
	if maxBody <= 0 {
		maxBody = DefaultMaxBody
	}
	return func(w http.ResponseWriter, r *http.Request) {
		if !CheckContentType(w, r, "text/plain", "application/octet-stream", "application/x-aiger") {
			return
		}
		p, perr := ParseMapParams(r)
		if perr != nil {
			WriteError(w, r, perr)
			return
		}
		// A doomed insert is refused before the expensive mapping pass,
		// not after it.
		if p.Insert {
			if cfg.Insert == nil {
				WriteError(w, r, Errf(CodeReadOnly, "this server does not accept inserts; retry without insert=true"))
				return
			}
			if e := cfg.Insert.CheckArity(p.K); e != nil {
				WriteError(w, r, e)
				return
			}
		}
		// The body is read whole before parsing so the limit breach is
		// still a typed *http.MaxBytesError here — aig.ReadAAG flattens
		// wrapped errors, which would turn the documented body_too_large
		// into a misleading bad_circuit. The buffer is bounded by maxBody
		// and the mapper holds the whole AIG anyway.
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
		if err != nil {
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				WriteError(w, r, Errf(CodeBodyTooLarge, "circuit body exceeds %d bytes", maxBody))
				return
			}
			WriteError(w, r, Errf(CodeBadRequest, "reading circuit body: %v", err))
			return
		}
		g, err := aig.ReadAAG(bytes.NewReader(body))
		if err != nil {
			WriteError(w, r, Errf(CodeBadCircuit, "parsing AIGER body: %v", err))
			return
		}

		mode := mapper.Depth
		if p.Mode == "area" {
			mode = mapper.Area
		}
		res, err := mapper.Map(g, mapper.Options{K: p.K, CutsPerNode: p.Cuts, Mode: mode})
		if err != nil {
			WriteError(w, r, Errf(CodeBadCircuit, "mapping failed: %v", err))
			return
		}

		// Never serve an unverified mapping: check the LUT network against
		// the uploaded circuit before encoding anything.
		method := "exhaustive"
		if g.NumPIs() <= maxExhaustivePIs {
			err = mapper.Verify(g, res)
		} else {
			method = "sampled"
			err = mapper.VerifySampled(g, res, mapVerifyWords, mapVerifySeed)
		}
		if err != nil {
			WriteError(w, r, Errf(CodeVerifyFailed, "mapping verification failed: %v", err))
			return
		}

		resp := MapResponse{
			Circuit:      CircuitInfo{PIs: g.NumPIs(), POs: len(g.POs()), Ands: g.NumAnds()},
			K:            p.K,
			Mode:         p.Mode,
			Cuts:         p.Cuts,
			LUTs:         make([]LUTJSON, len(res.LUTs)),
			Area:         res.Area(),
			Depth:        res.Depth,
			Funcs:        res.Funcs,
			Verified:     true,
			VerifyMethod: method,
		}
		for i, l := range res.LUTs {
			resp.LUTs[i] = LUTJSON{
				Root:     l.Root,
				Leaves:   l.Leaves,
				Function: l.Function.Hex(),
				Vars:     l.Function.NumVars(),
				Class:    KeyHex(l.ClassKey),
			}
		}
		resp.Classes = censusRows(res.Classes)

		if p.Insert {
			summary, e := insertMapped(r.Context(), cfg.Insert, res, p.K)
			if e != nil {
				WriteError(w, r, e)
				return
			}
			resp.Inserted = summary
		}
		WriteJSON(w, http.StatusOK, resp)
	}
}

// censusRows flattens the class census, ordered by count desc, key asc.
func censusRows(classes map[uint64]int) []ClassCount {
	keys := make([]uint64, 0, len(classes))
	for k := range classes {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if classes[keys[i]] != classes[keys[j]] {
			return classes[keys[i]] > classes[keys[j]]
		}
		return keys[i] < keys[j]
	})
	out := make([]ClassCount, len(keys))
	for i, k := range keys {
		out[i] = ClassCount{Class: KeyHex(k), Count: classes[k]}
	}
	return out
}

// insertMapped feeds the mapping's distinct K-ary LUT functions into the
// store, warming the classifier with real mapping traffic.
func insertMapped(ctx context.Context, b Backend, res *mapper.Result, k int) (*MapInsertSummary, *Error) {
	seen := make(map[string]bool, len(res.LUTs))
	var fs []*tt.TT
	for _, l := range res.LUTs {
		fk := l.Function
		if fk.NumVars() < k {
			fk = fk.Extend(k)
		}
		h := fk.Hex()
		if seen[h] {
			continue
		}
		seen[h] = true
		fs = append(fs, fk)
	}
	outcomes, e := b.Insert(ctx, fs)
	if e != nil {
		return nil, e
	}
	s := &MapInsertSummary{Functions: len(fs)}
	for _, o := range outcomes {
		switch {
		case o.Err != nil || o.Index < 0:
			s.Errors++
		case o.New:
			s.ClassesCreated++
		}
	}
	return s, nil
}
