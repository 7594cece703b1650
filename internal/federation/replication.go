// Primary-side WAL shipping: the segment manifest and the raw-byte
// endpoints a replication follower (internal/replica) tails. The registry
// owns the per-arity WAL directories and writers, so it is the natural
// place to expose them: the manifest lists every arity's snapshot and
// segments (with sizes and meta words, so a follower can resume at exact
// byte offsets and decide key trust per segment), and the segment
// endpoint serves a range read of one segment file. The active segment
// is listed and served only up to the writer's fsynced boundary
// (wal.Writer.DurableSize): replication never ships a record the primary
// could still lose to a power cut, so a follower can never hold phantom
// classes its primary forgot — its state is always a prefix of the
// primary's durable history.
package federation

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/api"
	"repro/internal/wal"
)

// SegmentInfo describes one WAL segment in a replication manifest.
type SegmentInfo struct {
	// Seq is the segment's sequence number; replay order is increasing Seq.
	Seq uint64 `json:"seq"`
	// Size is the file size in bytes at manifest time. Sizes only grow
	// (for the active segment) or vanish (compaction), never shrink, so a
	// follower can treat Size as a low-water mark.
	Size int64 `json:"size"`
	// Meta is the segment header's meta word in %016x hex — the writing
	// store's MSV configuration fingerprint, which decides whether the
	// segment's logged class keys can be trusted.
	Meta string `json:"meta"`
	// Sealed reports whether the segment will never be appended to again.
	Sealed bool `json:"sealed"`
}

// ArityManifest is one arity's replication state: its snapshot (if any)
// and the log segments to tail after it.
type ArityManifest struct {
	Arity int `json:"arity"`
	// Fingerprint is the arity's store configuration fingerprint (%016x),
	// the meta word new segments are written under.
	Fingerprint string `json:"fingerprint"`
	// HasSnapshot and SnapshotBytes describe the compacted base snapshot.
	HasSnapshot   bool  `json:"has_snapshot"`
	SnapshotBytes int64 `json:"snapshot_bytes"`
	// ActiveSeq is the segment currently being appended to.
	ActiveSeq uint64 `json:"active_seq"`
	// Segments lists the directory's segments in replay order.
	Segments []SegmentInfo `json:"segments"`
}

// Manifest is the GET /v1/wal/segments response: the replication state of
// every constructed arity.
type Manifest struct {
	MinVars int             `json:"min_vars"`
	MaxVars int             `json:"max_vars"`
	Arities []ArityManifest `json:"arities"`
}

// Manifest returns the replication manifest for every durable arity —
// constructed services and arities whose WAL directory exists on disk
// but has not been touched since the last restart (those are recovered
// on the spot, so a primary that restarted into silence still ships its
// whole history to followers instead of an empty manifest). The active
// segment is listed at its fsynced size, so followers only ever chase
// durable bytes. On a non-durable registry it returns ErrNotDurable.
func (r *Registry) Manifest() (Manifest, error) {
	if !r.Durable() {
		return Manifest{}, ErrNotDurable
	}
	m := Manifest{MinVars: r.lo, MaxVars: r.hi, Arities: []ArityManifest{}}
	active := make(map[int]bool)
	for _, n := range r.Active() {
		active[n] = true
	}
	for n := r.lo; n <= r.hi; n++ {
		dir := r.ArityDir(n)
		if !active[n] {
			// Only wake arities that left state behind; a Stat miss means
			// the arity has never served and has nothing to replicate.
			if _, err := os.Stat(dir); err != nil {
				continue
			}
		}
		svc, err := r.Service(n) // recovers the store + reopens the writer if needed
		if err != nil {
			return m, err
		}
		w := r.writer(n)
		if w == nil {
			continue
		}
		// List the segments before stat-ing the snapshot: a compaction
		// completing in between then yields an old segment list with the
		// new snapshot (harmless — a bootstrapping follower applies the
		// snapshot and dedups the overlap, or 404s and re-polls), never a
		// post-compaction segment list without the snapshot, which would
		// make it silently skip every compacted class. DurableSize is read
		// after the listing so a rotation in between can only under-list
		// (a sealed segment briefly capped at its old durable size), never
		// advertise unfsynced bytes of a newer active segment.
		segs, err := wal.ListSegments(dir)
		if err != nil {
			return m, fmt.Errorf("federation: list arity %d: %w", n, err)
		}
		activeSeq, durable := w.DurableSize()
		am := ArityManifest{
			Arity:       n,
			Fingerprint: fmt.Sprintf("%016x", svc.Store().Fingerprint()),
			ActiveSeq:   activeSeq,
			Segments:    []SegmentInfo{},
		}
		for _, s := range segs {
			meta, err := wal.ReadSegmentMeta(s.Path)
			if err != nil {
				// The file vanished (or tore) between listing and the
				// read — a compaction race the follower's next poll
				// resolves.
				continue
			}
			size := s.Size
			if s.Seq == activeSeq && durable < size {
				size = durable // never advertise unfsynced bytes
			}
			am.Segments = append(am.Segments, SegmentInfo{
				Seq:    s.Seq,
				Size:   size,
				Meta:   fmt.Sprintf("%016x", meta),
				Sealed: s.Seq < activeSeq,
			})
		}
		if info, err := os.Stat(filepath.Join(dir, wal.SnapshotFile)); err == nil {
			am.HasSnapshot, am.SnapshotBytes = true, info.Size()
		}
		m.Arities = append(m.Arities, am)
	}
	return m, nil
}

// walError writes the replication feed's flat {"error": "..."} body. The
// feed is the internal primary↔follower protocol, not a /v2 route: it
// keeps the shape older followers expect, so a mixed-version pair keeps
// replicating during an upgrade (followers read only the status).
func walError(w http.ResponseWriter, status int, format string, args ...any) {
	api.WriteJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// handleWALManifest is GET /v1/wal/segments.
func handleWALManifest(reg *Registry) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		m, err := reg.Manifest()
		if errors.Is(err, ErrNotDurable) {
			walError(w, http.StatusConflict, "%v", err)
			return
		}
		if err != nil {
			walError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		api.WriteJSON(w, http.StatusOK, m)
	}
}

// walArity validates the {arity} path value of a WAL endpoint against the
// durable registry. On failure it writes the error response and returns
// ok=false.
func walArity(w http.ResponseWriter, r *http.Request, reg *Registry) (int, bool) {
	if !reg.Durable() {
		walError(w, http.StatusConflict, "%v", ErrNotDurable)
		return 0, false
	}
	n, err := strconv.Atoi(r.PathValue("arity"))
	if err != nil || n < reg.lo || n > reg.hi {
		walError(w, http.StatusBadRequest, "arity %q outside federated range %d..%d",
			r.PathValue("arity"), reg.lo, reg.hi)
		return 0, false
	}
	return n, true
}

// handleWALSnapshot is GET /v1/wal/snapshot/{arity}: the arity's base
// snapshot file (a ttio workload), 404 when no compaction has run yet.
func handleWALSnapshot(reg *Registry) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		n, ok := walArity(w, r, reg)
		if !ok {
			return
		}
		f, err := os.Open(filepath.Join(reg.ArityDir(n), wal.SnapshotFile))
		if os.IsNotExist(err) {
			walError(w, http.StatusNotFound, "arity %d has no snapshot", n)
			return
		}
		if err != nil {
			walError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		defer f.Close()
		w.Header().Set("Content-Type", "application/octet-stream")
		io.Copy(w, f)
	}
}

// handleWALSegment is GET /v1/wal/segment/{arity}/{seq}?offset=N: the raw
// bytes of one segment from the given record-boundary offset to the
// current end of file. The arity's writer is flushed first, so a follower
// polling this endpoint sees every acknowledged append; the stream may
// end mid-record when an append races the copy, which the wal.Reader
// framing reports as a retryable ErrPartial. A 404 means the segment was
// compacted away — the follower re-reads the manifest and re-bootstraps
// from the snapshot.
func handleWALSegment(reg *Registry) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		n, ok := walArity(w, r, reg)
		if !ok {
			return
		}
		seq, err := strconv.ParseUint(r.PathValue("seq"), 10, 64)
		if err != nil || seq == 0 {
			walError(w, http.StatusBadRequest, "bad segment sequence %q", r.PathValue("seq"))
			return
		}
		offset := int64(0)
		if o := r.URL.Query().Get("offset"); o != "" {
			offset, err = strconv.ParseInt(o, 10, 64)
			if err != nil || offset < 0 {
				walError(w, http.StatusBadRequest, "bad offset %q", o)
				return
			}
		}
		// The durable boundary is read before opening the file, so the
		// file is always at least `end` bytes long: fsyncs only grow it.
		end := int64(-1) // -1: serve to EOF (sealed or writerless segments are durable in full)
		if wr := reg.writer(n); wr != nil {
			if activeSeq, durable := wr.DurableSize(); seq == activeSeq {
				end = durable
			}
		}
		path := wal.SegmentPath(reg.ArityDir(n), seq)
		f, err := os.Open(path)
		if os.IsNotExist(err) {
			walError(w, http.StatusNotFound, "arity %d segment %d is gone (compacted)", n, seq)
			return
		}
		if err != nil {
			walError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		defer f.Close()
		info, err := f.Stat()
		if err != nil {
			walError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		if end < 0 || end > info.Size() {
			end = info.Size()
		}
		if offset > end {
			walError(w, http.StatusRequestedRangeNotSatisfiable,
				"offset %d beyond durable segment size %d", offset, end)
			return
		}
		if _, err := f.Seek(offset, io.SeekStart); err != nil {
			walError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		// The segment's meta word and sealedness travel in the manifest;
		// the body is nothing but raw durable bytes for
		// wal.NewReader(r, offset).
		w.Header().Set("Content-Type", "application/octet-stream")
		io.CopyN(w, f, end-offset)
	}
}
