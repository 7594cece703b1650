package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"repro/internal/tt"
	"repro/internal/ttio"
)

// ErrPartial reports that a segment byte stream ended in the middle of a
// record (or of the header): the bytes so far are a valid prefix, but the
// tail is incomplete. When tailing a segment that is being appended to —
// a follower streaming a primary's active segment, or a reader racing the
// writer's buffered flushes — this is the ordinary "caught up mid-append"
// condition: resume later from Offset. In a sealed segment it is a torn
// tail (crash artifact) or corruption.
var ErrPartial = errors.New("wal: incomplete record at end of stream")

// ErrFrame reports bytes that are structurally not a valid record frame:
// bad segment magic, an implausible record length, or a checksum
// mismatch. Unlike ErrPartial it never resolves by reading further; in a
// final segment it is treated as a torn tail (interleaved page writes on
// power loss can corrupt the tail without shortening it), anywhere else
// it is corruption.
var ErrFrame = errors.New("wal: invalid record frame")

// Reader decodes one segment's byte stream incrementally — the streaming
// counterpart of Replay, and the framing shared by crash recovery,
// compaction and the replication endpoints. It consumes any io.Reader
// positioned at a record boundary within a segment: offset 0 (the whole
// segment, header included) or the Offset() a previous Reader reached
// (resuming a tail, e.g. an HTTP range read of a live segment).
//
// Next returns records until the stream ends: io.EOF at a clean record
// boundary, ErrPartial when the stream stops mid-record (retry later from
// Offset with a fresh stream — the Reader has buffered past the boundary,
// so it cannot itself continue), ErrFrame or a parse error on corrupt
// bytes. Offset always names the boundary after the last whole record, so
// a tailing caller can hand it straight back as the next resume point.
type Reader struct {
	br       *bufio.Reader
	offset   int64
	meta     uint64
	haveMeta bool
	payload  []byte
}

// NewReader decodes a segment stream. offset is the position of r within
// the segment file and must be a record boundary: 0 to read the header
// too, or a previous Reader's Offset() to resume mid-segment (the header
// is then not re-read, so Meta reports false).
func NewReader(r io.Reader, offset int64) *Reader {
	return &Reader{
		br:      bufio.NewReaderSize(r, 1<<16),
		offset:  offset,
		payload: make([]byte, maxPayload),
	}
}

// Offset returns the boundary after the last whole record (or header)
// consumed — the segment position to resume from after an io.EOF or
// ErrPartial.
func (r *Reader) Offset() int64 { return r.offset }

// Meta returns the segment header's meta word. It reports false until the
// header has been read, and always for a Reader resumed past the header
// (the caller learned the meta from the segment manifest instead).
func (r *Reader) Meta() (uint64, bool) { return r.meta, r.haveMeta }

// Next returns the next record. See the Reader doc for the error
// contract: io.EOF ends a clean stream, ErrPartial an incomplete one,
// ErrFrame and parse errors report corruption. After any error the Reader
// is positioned at Offset() logically but must be replaced (with a fresh
// stream) to continue.
func (r *Reader) Next() (Record, error) {
	if r.offset == 0 {
		var hdr [headerSize]byte
		if _, err := io.ReadFull(r.br, hdr[:]); err != nil {
			return Record{}, fmt.Errorf("%w: short or missing segment header", ErrPartial)
		}
		meta, err := parseHeader(hdr[:])
		if err != nil {
			return Record{}, fmt.Errorf("%w: %v", ErrFrame, err)
		}
		r.meta, r.haveMeta = meta, true
		r.offset = headerSize
	}
	var frame [frameSize]byte
	if _, err := io.ReadFull(r.br, frame[:]); err != nil {
		if err == io.EOF {
			return Record{}, io.EOF // clean end at a record boundary
		}
		return Record{}, fmt.Errorf("%w: torn record frame at offset %d", ErrPartial, r.offset)
	}
	size := int(binary.LittleEndian.Uint32(frame[:4]))
	if size < 9 || size > maxPayload {
		return Record{}, fmt.Errorf("%w: implausible record length %d at offset %d", ErrFrame, size, r.offset)
	}
	p := r.payload[:size]
	if _, err := io.ReadFull(r.br, p); err != nil {
		return Record{}, fmt.Errorf("%w: torn record payload at offset %d", ErrPartial, r.offset)
	}
	if crc32.ChecksumIEEE(p) != binary.LittleEndian.Uint32(frame[4:8]) {
		return Record{}, fmt.Errorf("%w: record checksum mismatch at offset %d", ErrFrame, r.offset)
	}
	rec, perr := parsePayload(p)
	if perr != nil {
		// CRC-valid but unparseable: corruption or format skew, never a
		// torn tail — fail loudly everywhere.
		return Record{}, fmt.Errorf("wal: offset %d: %w", r.offset, perr)
	}
	r.offset += frameSize + int64(size)
	return rec, nil
}

// ReadSegmentMeta returns the meta word of the segment file at path, read
// from its 16-byte header.
func ReadSegmentMeta(path string) (uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	var hdr [headerSize]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return 0, fmt.Errorf("wal: %s: short segment header: %w", path, err)
	}
	meta, err := parseHeader(hdr[:])
	if err != nil {
		return 0, fmt.Errorf("wal: %s: %w", path, err)
	}
	return meta, nil
}

// ReplayStats summarizes one replay pass.
type ReplayStats struct {
	// Segments is the number of segment files visited.
	Segments int
	// Records is the number of valid records delivered.
	Records int64
	// Bytes is the total valid bytes read (headers and frames included).
	Bytes int64
	// TornBytes is the length of the discarded torn tail of the final
	// segment, zero after a clean shutdown.
	TornBytes int64
}

// Replay streams every record in dir's log to fn in insertion order:
// segments in sequence order, records in file order within each segment.
// fn receives the record's segment and the segment's meta word, so a
// caller can decide per segment whether to trust the logged keys.
//
// A torn tail — a record left incomplete by a crash mid-append — is
// tolerated only in the final segment: replay of that segment stops at
// the last valid record with no error and reports the discarded length in
// TornBytes. (Replay itself is read-only; OpenWriter truncates the tail
// before appending again.) The same damage in a sealed segment is real
// corruption and fails the replay. An error from fn aborts the replay.
func Replay(dir string, fn func(seg Segment, meta uint64, rec Record) error) (ReplayStats, error) {
	segs, err := ListSegments(dir)
	if err != nil {
		return ReplayStats{}, err
	}
	return replaySegments(segs, true, fn)
}

func replaySegments(segs []Segment, tornTailOK bool, fn func(seg Segment, meta uint64, rec Record) error) (ReplayStats, error) {
	var st ReplayStats
	for i, seg := range segs {
		last := tornTailOK && i == len(segs)-1
		records, valid, torn, err := replaySegment(seg, last, fn)
		st.Segments++
		st.Records += records
		st.Bytes += valid
		st.TornBytes += torn
		if err != nil {
			return st, err
		}
	}
	return st, nil
}

// replaySegment streams one segment's records to fn through a Reader.
// When last is true a torn tail (ErrPartial or ErrFrame) ends the segment
// silently and its length is returned; otherwise it is an error. valid is
// the byte length of the intact prefix (header plus whole records).
func replaySegment(seg Segment, last bool, fn func(seg Segment, meta uint64, rec Record) error) (records, valid, torn int64, err error) {
	f, err := os.Open(seg.Path)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	r := NewReader(f, 0)
	for {
		rec, rerr := r.Next()
		switch {
		case rerr == nil:
		case errors.Is(rerr, io.EOF):
			return records, r.Offset(), 0, nil // clean end of segment
		case errors.Is(rerr, ErrPartial) || errors.Is(rerr, ErrFrame):
			if last {
				return records, r.Offset(), seg.Size - r.Offset(), nil
			}
			return records, r.Offset(), 0, fmt.Errorf("wal: %s: %v in sealed segment", seg.Path, rerr)
		default:
			return records, r.Offset(), 0, fmt.Errorf("wal: %s: %w", seg.Path, rerr)
		}
		meta, _ := r.Meta()
		records++
		if err := fn(seg, meta, rec); err != nil {
			return records, r.Offset(), 0, err
		}
	}
}

// scanSegment validates a segment without delivering records: it returns
// the segment's meta word, the length of its intact prefix and the record
// count within it. headerOK reports whether the header itself parsed; a
// false return means the file should be rebuilt from scratch. OpenWriter
// uses this to truncate a torn tail before resuming appends.
func scanSegment(path string) (meta uint64, valid int64, records int64, headerOK bool, err error) {
	info, err := os.Stat(path)
	if err != nil {
		return 0, 0, 0, false, fmt.Errorf("wal: %w", err)
	}
	seg := Segment{Path: path, Size: info.Size()}
	records, valid, _, err = replaySegment(seg, true, func(Segment, uint64, Record) error { return nil })
	if err != nil {
		return 0, 0, 0, false, err
	}
	if valid < headerSize {
		return 0, 0, 0, false, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, 0, false, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	var hdr [headerSize]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return 0, 0, 0, false, fmt.Errorf("wal: %w", err)
	}
	meta, err = parseHeader(hdr[:])
	if err != nil {
		return 0, 0, 0, false, err
	}
	return meta, valid, records, true, nil
}

// ReadSnapshot loads dir's base snapshot, the ttio workload the last
// compaction wrote (or an operator seeded). It returns nil with no error
// when no snapshot exists.
func ReadSnapshot(dir string, n int) ([]*tt.TT, error) {
	f, err := os.Open(filepath.Join(dir, SnapshotFile))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	return ttio.Read(f, n)
}
