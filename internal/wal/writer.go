package wal

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/tt"
)

// ErrClosed is returned by appends to a closed Writer.
var ErrClosed = errors.New("wal: writer is closed")

// Options configures a Writer.
type Options struct {
	// SegmentBytes is the rotation threshold: a segment that has reached
	// this size is sealed and a new one started before the next append.
	// Zero means DefaultSegmentBytes.
	SegmentBytes int64
	// FsyncEvery is the group-fsync interval: appends are buffered and a
	// background flusher syncs them to disk at this period, bounding the
	// post-crash loss window to at most one interval of appends. Zero (the
	// default) flushes and fsyncs every Append — and every journal Commit
	// — so nothing acknowledged is ever lost, at a per-operation latency
	// cost.
	FsyncEvery time.Duration
	// Meta is stamped into every segment header this writer creates.
	// internal/store uses it as a fingerprint of the MSV key configuration
	// so replay knows whether logged class keys can be trusted.
	Meta uint64
	// ObserveFsync, when set, is called with the duration of every fsync —
	// the hook internal/obs uses to feed the fsync-latency histogram. It
	// runs under the writer's mutex (on the append path in every-append
	// mode), so it must be cheap and must not call back into the writer.
	ObserveFsync func(d time.Duration)
}

func (o Options) segmentBytes() int64 {
	if o.SegmentBytes <= 0 {
		return DefaultSegmentBytes
	}
	return o.SegmentBytes
}

// Stats is a point-in-time snapshot of a writer's log.
type Stats struct {
	// Segments and SealedSegments count the directory's segment files; the
	// difference (at most one) is the active segment.
	Segments       int
	SealedSegments int
	// Bytes is the total size of all segment files.
	Bytes int64
	// Records counts appends since this writer opened.
	Records int64
	// Fsyncs and Rotations count syncs and segment rotations since open.
	Fsyncs    int64
	Rotations int64
	// FsyncLagMillis is the age of the oldest append not yet fsynced —
	// the data currently at risk — or zero when the log is clean.
	FsyncLagMillis float64
}

// Writer appends class-insert records to a segmented log. Appends are
// buffered; durability is governed by Options.FsyncEvery. All methods are
// safe for concurrent use.
type Writer struct {
	dir  string
	opts Options

	mu         sync.Mutex
	f          *os.File
	bw         *bufio.Writer
	seq        uint64 // active segment sequence
	size       int64  // active segment size including buffered bytes
	durable    int64  // active segment bytes known fsynced (a record boundary)
	segRecords int64  // records in the active segment
	scratch    []byte
	dirty      bool
	firstDirty time.Time
	closed     bool

	records   atomic.Int64
	fsyncs    atomic.Int64
	rotations atomic.Int64

	stop chan struct{}
	done chan struct{}
}

// OpenWriter opens dir's log for appending, creating the directory if
// needed. Crash recovery happens here: a torn tail record in the last
// segment is truncated away (Replay already refuses to deliver it), and a
// last segment whose header is unreadable is rebuilt. Appends continue in
// the last segment unless it is full or was written under a different
// Meta word, in which case a fresh segment is started.
func OpenWriter(dir string, o Options) (*Writer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	// A crashed compaction may leave a half-written snapshot behind.
	if tmps, err := filepath.Glob(filepath.Join(dir, "*.tmp")); err == nil {
		for _, tmp := range tmps {
			os.Remove(tmp)
		}
	}
	w := &Writer{dir: dir, opts: o}
	segs, err := ListSegments(dir)
	if err != nil {
		return nil, err
	}
	if len(segs) == 0 {
		if err := w.createSegment(1); err != nil {
			return nil, err
		}
	} else {
		last := segs[len(segs)-1]
		meta, valid, records, headerOK, err := scanSegment(last.Path)
		if err != nil {
			return nil, err
		}
		switch {
		case !headerOK:
			// Crash before the header hit disk: rebuild the file in place.
			if err := os.Remove(last.Path); err != nil {
				return nil, fmt.Errorf("wal: %w", err)
			}
			if err := w.createSegment(last.Seq); err != nil {
				return nil, err
			}
		case meta != o.Meta || valid >= o.segmentBytes():
			// Stale configuration or already full: seal it as-is (after
			// dropping any torn tail) and start fresh.
			if valid < last.Size {
				if err := os.Truncate(last.Path, valid); err != nil {
					return nil, fmt.Errorf("wal: %w", err)
				}
			}
			if err := w.createSegment(last.Seq + 1); err != nil {
				return nil, err
			}
		default:
			if valid < last.Size {
				if err := os.Truncate(last.Path, valid); err != nil {
					return nil, fmt.Errorf("wal: %w", err)
				}
			}
			f, err := os.OpenFile(last.Path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return nil, fmt.Errorf("wal: %w", err)
			}
			w.f, w.bw = f, bufio.NewWriterSize(f, 1<<16)
			w.seq, w.size, w.segRecords = last.Seq, valid, records
			w.durable = valid // the scanned prefix is on disk
		}
	}
	if o.FsyncEvery > 0 {
		w.stop = make(chan struct{})
		w.done = make(chan struct{})
		go w.flusher(o.FsyncEvery)
	}
	return w, nil
}

// createSegment starts a new segment file with a fresh header, fsyncing
// the header and the directory entry so the segment itself is durable.
func (w *Writer) createSegment(seq uint64) error {
	path := SegmentPath(w.dir, seq)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	hdr := appendHeader(nil, w.opts.Meta)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	syncDir(w.dir)
	w.f, w.bw = f, bufio.NewWriterSize(f, 1<<16)
	w.seq, w.size, w.segRecords = seq, int64(len(hdr)), 0
	w.durable = int64(len(hdr)) // header was fsynced above
	return nil
}

// Append logs one class insert outside any store: LogInsert then Commit,
// each with context.Background(). With FsyncEvery zero the record is on
// disk when Append returns; otherwise it is durable after the next group
// fsync (at most one interval away).
func (w *Writer) Append(key uint64, f *tt.TT) error {
	ctx := context.Background()
	if err := w.LogInsert(ctx, key, f); err != nil {
		return err
	}
	return w.Commit(ctx)
}

// rotateIfFullLocked rotates when the active segment has reached the
// threshold. Rotation fsyncs and creates files, so the journal path must
// only reach it from Commit — after the store shard lock is released —
// never from LogInsert.
func (w *Writer) rotateIfFullLocked() error {
	if w.closed {
		return ErrClosed
	}
	if w.size >= w.opts.segmentBytes() && w.segRecords > 0 {
		return w.rotateLocked()
	}
	return nil
}

// appendLocked buffers one record. It never syncs and never rotates:
// it is the only WAL work allowed under a store shard lock.
func (w *Writer) appendLocked(key uint64, f *tt.TT) error {
	if w.closed {
		return ErrClosed
	}
	w.scratch = appendRecord(w.scratch[:0], key, f)
	n, err := w.bw.Write(w.scratch)
	w.size += int64(n)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	w.segRecords++
	w.records.Add(1)
	if !w.dirty {
		w.dirty = true
		w.firstDirty = time.Now()
	}
	return nil
}

// LogInsert and Commit are the store.Journal hook. LogInsert only
// buffers the record — it is called under a store shard lock, so it must
// never pay a disk sync or touch segment files there (the lockfsync
// analyzer enforces this). Commit, called by the store after the class
// is published and the lock released, owes the deferred work: it rotates
// a full segment, and in every-append mode fsyncs the acknowledged
// appends (group mode leaves durability to the background flusher). A
// segment can therefore overshoot SegmentBytes by the records buffered
// between commits — bounded by one insert batch.
//
// LogInsert runs under a wal.append tracing span, so a traced insert
// shows how long the buffered append took; with tracing off the span is
// nil and this costs one context lookup.
func (w *Writer) LogInsert(ctx context.Context, key uint64, f *tt.TT) error {
	_, sp := obs.StartSpan(ctx, "wal.append")
	defer sp.End()
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appendLocked(key, f)
}

// Commit implements store.Journal; see LogInsert. It runs under a
// wal.fsync span: in group-fsync mode the background flusher owns
// durability and the span records a zero-length wait (mode=group); in
// every-append mode it measures the request's actual fsync stall.
func (w *Writer) Commit(ctx context.Context) error {
	_, sp := obs.StartSpan(ctx, "wal.fsync")
	defer sp.End()
	if sp != nil {
		if w.opts.FsyncEvery > 0 {
			sp.SetAttr("mode", "group")
		} else {
			sp.SetAttr("mode", "every-append")
		}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	if err := w.rotateIfFullLocked(); err != nil {
		return err
	}
	if w.opts.FsyncEvery > 0 {
		return nil
	}
	return w.syncLocked()
}

// DurableSize returns the active segment's sequence and the length of
// its prefix known to be fsynced — always a record boundary, since every
// sync flushes whole buffered records. The replication endpoints serve
// the active segment only up to this boundary, so a follower can never
// apply a record its primary might lose to a power cut; sealed segments
// (sequence below the returned one) are durable in full.
func (w *Writer) DurableSize() (seq uint64, size int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq, w.durable
}

// Sync flushes buffered appends and fsyncs the active segment.
func (w *Writer) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	return w.syncLocked()
}

func (w *Writer) syncLocked() error {
	if err := w.bw.Flush(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	start := time.Now()
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if w.opts.ObserveFsync != nil {
		w.opts.ObserveFsync(time.Since(start))
	}
	w.fsyncs.Add(1)
	w.durable = w.size
	w.dirty = false
	return nil
}

// rotateLocked seals the active segment (flush, fsync, close) and starts
// the next one.
func (w *Writer) rotateLocked() error {
	if err := w.syncLocked(); err != nil {
		return err
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	w.rotations.Add(1)
	return w.createSegment(w.seq + 1)
}

// Seal rotates the active segment if it holds any records, so that every
// record logged so far lives in a sealed segment, and returns the active
// (empty or fresh) segment's sequence. Compaction folds exactly the
// segments below the returned sequence.
func (w *Writer) Seal() (activeSeq uint64, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, ErrClosed
	}
	if w.segRecords > 0 {
		if err := w.rotateLocked(); err != nil {
			return 0, err
		}
	}
	return w.seq, nil
}

// Close flushes and fsyncs outstanding appends, stops the background
// flusher and closes the active segment. Close is idempotent.
func (w *Writer) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	err := w.syncLocked()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.mu.Unlock()
	if w.stop != nil {
		close(w.stop)
		<-w.done
	}
	return err
}

// flusher is the group-fsync loop: every interval it syncs the log if any
// append landed since the last sync.
func (w *Writer) flusher(every time.Duration) {
	defer close(w.done)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-t.C:
			w.mu.Lock()
			if !w.closed && w.dirty {
				w.syncLocked() // next tick retries on error
			}
			w.mu.Unlock()
		}
	}
}

// Stats reports the log's current shape: segment counts and bytes are
// listed live from the directory (so compaction is reflected), counters
// are since this writer opened.
func (w *Writer) Stats() Stats {
	st := Stats{
		Records:   w.records.Load(),
		Fsyncs:    w.fsyncs.Load(),
		Rotations: w.rotations.Load(),
	}
	w.mu.Lock()
	if w.dirty {
		st.FsyncLagMillis = float64(time.Since(w.firstDirty).Nanoseconds()) / 1e6
	}
	buffered := int64(0)
	if w.bw != nil {
		buffered = int64(w.bw.Buffered())
	}
	w.mu.Unlock()
	if segs, err := ListSegments(w.dir); err == nil {
		st.Segments = len(segs)
		if st.Segments > 0 {
			st.SealedSegments = st.Segments - 1
		}
		for _, s := range segs {
			st.Bytes += s.Size
		}
		st.Bytes += buffered
	}
	return st
}
