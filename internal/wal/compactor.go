package wal

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/tt"
	"repro/internal/ttio"
)

// CompactStats summarizes one compaction pass.
type CompactStats struct {
	// SegmentsFolded and RecordsFolded count the sealed segments and the
	// records folded into the snapshot (and then deleted). Zero folded
	// segments means the pass was a no-op.
	SegmentsFolded int   `json:"segments_folded"`
	RecordsFolded  int64 `json:"records_folded"`
	// Duplicates counts folded records whose table was already in the
	// snapshot — the crash-window overlap compaction exists to absorb.
	Duplicates int64 `json:"duplicates"`
	// Classes is the class count of the resulting snapshot.
	Classes int `json:"classes"`
	// SnapshotBytes is the size of the snapshot written by this pass, zero
	// for a no-op pass.
	SnapshotBytes int64 `json:"snapshot_bytes"`
}

// Compactor folds a WAL directory's sealed segments, together with the
// previous snapshot, into a fresh snapshot, then deletes the folded
// segments. Recovery after compaction reads one snapshot plus whatever
// was appended since, instead of replaying the log's whole history.
//
// Dedup during the fold is by exact truth-table equality: every logged
// record was a distinct certified class in the store that wrote it, so
// the only overlap a fold can encounter is a record also present in the
// snapshot — the window where a previous compaction crashed between
// writing the snapshot and deleting the folded segments.
type Compactor struct {
	// Dir is the WAL directory.
	Dir string
	// N is the directory's arity; folded records of any other arity fail
	// the pass.
	N int
	// W, when set, is the live writer appending to Dir: Compact seals its
	// active segment first so every record logged so far is foldable, and
	// only segments below the writer's active sequence are touched. A nil
	// W compacts an offline directory (all segments are sealed).
	W *Writer

	mu sync.Mutex // serializes Compact passes
}

// Compact runs one compaction pass. It is safe to run while W keeps
// appending: live appends go to the active segment, which is never
// touched. A pass with nothing to fold returns a zero-fold CompactStats
// without rewriting the snapshot.
func (c *Compactor) Compact() (CompactStats, error) {
	c.mu.Lock()
	defer c.mu.Unlock()

	activeSeq := uint64(math.MaxUint64)
	if c.W != nil {
		seq, err := c.W.Seal()
		if err != nil {
			return CompactStats{}, err
		}
		activeSeq = seq
	}
	segs, err := ListSegments(c.Dir)
	if err != nil {
		return CompactStats{}, err
	}
	sealed := segs[:0:0]
	for _, s := range segs {
		if s.Seq < activeSeq {
			sealed = append(sealed, s)
		}
	}
	var st CompactStats
	if len(sealed) == 0 {
		if classes, err := ReadSnapshot(c.Dir, c.N); err == nil {
			st.Classes = len(classes)
		}
		return st, nil
	}

	classes, err := ReadSnapshot(c.Dir, c.N)
	if err != nil {
		return st, err
	}
	seen := make(map[string]bool, len(classes))
	for _, f := range classes {
		seen[tableKey(f)] = true
	}
	// With a live writer every folded segment is genuinely sealed and a
	// torn record in one is corruption. Offline (no writer) the highest
	// segment was an active segment when its process died, so a torn tail
	// there is the ordinary crash artifact — tolerated and discarded, just
	// as OpenWriter would truncate it.
	rst, err := replaySegments(sealed, c.W == nil, func(seg Segment, _ uint64, rec Record) error {
		if rec.Arity != c.N {
			return fmt.Errorf("wal: %s holds an arity-%d record, directory serves arity %d", seg.Path, rec.Arity, c.N)
		}
		if k := tableKey(rec.TT); !seen[k] {
			seen[k] = true
			classes = append(classes, rec.TT)
		} else {
			st.Duplicates++
		}
		return nil
	})
	if err != nil {
		return st, err
	}
	st.SegmentsFolded = len(sealed)
	st.RecordsFolded = rst.Records
	st.Classes = len(classes)

	// Publish the fresh snapshot atomically: write aside, fsync, rename
	// over the old one, fsync the directory. A crash anywhere in this
	// sequence leaves either the old snapshot with all segments (nothing
	// lost) or the new snapshot with stale segments (the duplicates the
	// fold dedups next time).
	tmp := filepath.Join(c.Dir, SnapshotFile+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return st, fmt.Errorf("wal: %w", err)
	}
	werr := ttio.Write(f, classes, fmt.Sprintf("wal snapshot n=%d classes=%d folded=%d segments", c.N, len(classes), len(sealed)))
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp)
		return st, fmt.Errorf("wal: %w", werr)
	}
	if info, err := os.Stat(tmp); err == nil {
		st.SnapshotBytes = info.Size()
	}
	if err := os.Rename(tmp, filepath.Join(c.Dir, SnapshotFile)); err != nil {
		os.Remove(tmp)
		return st, fmt.Errorf("wal: %w", err)
	}
	syncDir(c.Dir)

	for _, s := range sealed {
		if err := os.Remove(s.Path); err != nil && !os.IsNotExist(err) {
			return st, fmt.Errorf("wal: %w", err)
		}
	}
	syncDir(c.Dir)
	return st, nil
}

// tableKey packs a table's words into a map key for exact-equality dedup.
func tableKey(f *tt.TT) string {
	words := f.Words()
	b := make([]byte, 0, 8*len(words))
	for _, w := range words {
		b = append(b,
			byte(w), byte(w>>8), byte(w>>16), byte(w>>24),
			byte(w>>32), byte(w>>40), byte(w>>48), byte(w>>56))
	}
	return string(b)
}
