package api

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"

	"repro/internal/npn"
	"repro/internal/tt"
)

// BinaryContentType is the media type of the length-framed binary transport
// spoken by POST /v2/classify and POST /v2/insert next to JSON: raw
// truth-table words in, compact result frames out, negotiated per request
// via Content-Type (request body) and Accept (response body). The byte
// layout is specified normatively in docs/WIRE.md.
const BinaryContentType = "application/x-npn-binary"

// BinaryVersion is the frame format version carried in every frame header.
// Decoders reject frames with a different version.
const BinaryVersion = 1

// Binary frame constants: the two magic bytes opening every frame, and the
// header flag marking an appended CRC-32 trailer.
const (
	binMagic0 = 'N'
	binMagic1 = 'B'

	// binFlagCRC marks a frame whose last 4 bytes are the little-endian
	// IEEE CRC-32 of everything before them.
	binFlagCRC = 1 << 0
)

// Classify/insert item status bytes of binary response frames.
const (
	binStatusMiss    = 0 // classify: key known, class not stored
	binStatusHit     = 1 // classify: hit (insert: existing class)
	binStatusError   = 2 // per-item error follows as a JSON Error object
	binStatusCreated = 3 // insert: a new class was created
)

// ttBytes returns the packed byte length of an n-variable truth table:
// ceil(2^n/8), floored at one byte.
func ttBytes(n int) int {
	b := (1 << n) / 8
	if b == 0 {
		b = 1
	}
	return b
}

// appendTT appends f's truth table in packed little-endian bit order (bit k
// of byte j is minterm 8j+k).
func appendTT(dst []byte, f *tt.TT) []byte {
	nb := ttBytes(f.NumVars())
	for _, w := range f.Words() {
		for s := 0; s < 64 && nb > 0; s += 8 {
			dst = append(dst, byte(w>>uint(s)))
			nb--
		}
	}
	return dst
}

// readTT decodes an n-variable truth table from the packed form appendTT
// writes. High bits of the last byte beyond 2^n minterms must be zero.
func readTT(n int, data []byte) (*tt.TT, error) {
	f := tt.New(n)
	words := f.Words()
	for i, b := range data {
		if n < 3 && b>>(1<<uint(n)) != 0 {
			return nil, fmt.Errorf("trailing bits set beyond %d minterms", 1<<n)
		}
		words[i/8] |= uint64(b) << uint(8*(i%8))
	}
	return f, nil
}

// appendUvarint appends v in unsigned LEB128 varint encoding.
func appendUvarint(dst []byte, v uint64) []byte {
	var buf [binary.MaxVarintLen64]byte
	return append(dst, buf[:binary.PutUvarint(buf[:], v)]...)
}

// binReader walks a binary frame, remembering the first structural error.
type binReader struct {
	data []byte
	pos  int
	err  error
}

func (r *binReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format+" (at byte %d)", append(args, r.pos)...)
	}
}

func (r *binReader) byte() byte {
	if r.err != nil {
		return 0
	}
	if r.pos >= len(r.data) {
		r.fail("truncated frame: need 1 more byte")
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

func (r *binReader) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.pos+n > len(r.data) {
		r.fail("truncated frame: need %d bytes, have %d", n, len(r.data)-r.pos)
		return nil
	}
	b := r.data[r.pos : r.pos+n]
	r.pos += n
	return b
}

func (r *binReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 {
		r.fail("bad varint")
		return 0
	}
	// The spec requires minimal-length varints, so every frame has exactly
	// one valid encoding.
	if n != uvarintLen(v) {
		r.fail("non-minimal varint")
		return 0
	}
	r.pos += n
	return v
}

func (r *binReader) uint64() uint64 {
	b := r.bytes(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// header validates the frame preamble and returns (count, crc present).
// With CRC present, the trailer is verified and stripped from the walk.
func (r *binReader) header() (int, bool) {
	if len(r.data) < 5 {
		r.fail("frame shorter than the 5-byte minimum")
		return 0, false
	}
	if r.byte() != binMagic0 || r.byte() != binMagic1 {
		r.fail("bad magic: want 'NB'")
		return 0, false
	}
	if v := r.byte(); v != BinaryVersion {
		r.fail("unsupported frame version %d (want %d)", v, BinaryVersion)
		return 0, false
	}
	flags := r.byte()
	if flags&^binFlagCRC != 0 {
		r.fail("unknown flag bits 0x%02x", flags&^binFlagCRC)
		return 0, false
	}
	crc := flags&binFlagCRC != 0
	if crc {
		if len(r.data) < r.pos+4 {
			r.fail("CRC flag set but frame has no trailer")
			return 0, false
		}
		body, trailer := r.data[:len(r.data)-4], r.data[len(r.data)-4:]
		if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(trailer) {
			r.fail("CRC mismatch")
			return 0, false
		}
		r.data = body
	}
	count := r.uvarint()
	if r.err != nil {
		return 0, false
	}
	// Bound the count before the int conversion: a 64-bit count would
	// turn negative and slip past the callers' MaxBatch checks.
	if count > math.MaxInt32 {
		r.fail("item count %d out of range", count)
		return 0, false
	}
	return int(count), crc
}

// finish rejects trailing garbage after the last item.
func (r *binReader) finish() error {
	if r.err == nil && r.pos != len(r.data) {
		r.fail("%d trailing bytes after the last item", len(r.data)-r.pos)
	}
	return r.err
}

// appendBinaryHeader opens a frame: magic, version, flags, item count.
func appendBinaryHeader(dst []byte, count int, crc bool) []byte {
	flags := byte(0)
	if crc {
		flags |= binFlagCRC
	}
	dst = append(dst, binMagic0, binMagic1, BinaryVersion, flags)
	return appendUvarint(dst, uint64(count))
}

// finishBinaryFrame appends the CRC-32 trailer when the header declared it.
func finishBinaryFrame(dst []byte, crc bool) []byte {
	if crc {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], crc32.ChecksumIEEE(dst))
		dst = append(dst, b[:]...)
	}
	return dst
}

// EncodeBinaryRequest frames a batch of truth tables as the binary body of
// POST /v2/classify or POST /v2/insert: the 'NB' header, then per function
// one arity byte followed by its ceil(2^n/8) packed table bytes. With crc
// set the frame carries the CRC-32 trailer.
func EncodeBinaryRequest(fs []*tt.TT, crc bool) []byte {
	size := 5 + len(fs)
	for _, f := range fs {
		size += ttBytes(f.NumVars())
	}
	dst := appendBinaryHeader(make([]byte, 0, size+4), len(fs), crc)
	for _, f := range fs {
		dst = append(dst, byte(f.NumVars()))
		dst = appendTT(dst, f)
	}
	return finishBinaryFrame(dst, crc)
}

// DecodeBinaryRequest parses a binary request frame into its functions.
// Structural problems — bad magic or version, truncation, trailing bytes,
// CRC mismatch, an arity byte outside tt's representable range — fail the
// whole frame, exactly as malformed JSON fails the whole envelope; whether
// each function's arity is actually served is the caller's per-item
// decision. crc reports whether the frame carried a checksum, so responses
// can mirror it.
func DecodeBinaryRequest(data []byte) (fs []*tt.TT, crc bool, err error) {
	r := &binReader{data: data}
	count, crc := r.header()
	if r.err != nil {
		return nil, false, r.err
	}
	if count == 0 {
		return nil, false, fmt.Errorf("empty batch: frame declares zero functions")
	}
	if count > MaxBatch {
		return nil, false, fmt.Errorf("batch of %d exceeds limit %d", count, MaxBatch)
	}
	fs = make([]*tt.TT, 0, count)
	for i := 0; i < count; i++ {
		n := int(r.byte())
		if r.err != nil {
			return nil, false, r.err
		}
		if n < 1 || n > tt.MaxVars {
			return nil, false, fmt.Errorf("functions[%d]: arity %d outside 1..%d", i, n, tt.MaxVars)
		}
		raw := r.bytes(ttBytes(n))
		if r.err != nil {
			return nil, false, r.err
		}
		f, terr := readTT(n, raw)
		if terr != nil {
			return nil, false, fmt.Errorf("functions[%d]: %v", i, terr)
		}
		fs = append(fs, f)
	}
	return fs, crc, r.finish()
}

// appendWitness appends a witness transform: arity byte, the n permutation
// bytes, the negation mask as a varint, and the output-negation byte.
func appendWitness(dst []byte, w npn.Transform) []byte {
	dst = append(dst, byte(w.N))
	for i := 0; i < w.N; i++ {
		dst = append(dst, w.Perm[i])
	}
	dst = appendUvarint(dst, uint64(w.NegMask))
	if w.OutNeg {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// readWitness decodes the form appendWitness writes.
func (r *binReader) readWitness() (npn.Transform, bool) {
	n := int(r.byte())
	if r.err != nil || n < 1 || n > tt.MaxVars {
		r.fail("witness arity %d outside 1..%d", n, tt.MaxVars)
		return npn.Transform{}, false
	}
	w := npn.Identity(n)
	perm := r.bytes(n)
	if r.err != nil {
		return npn.Transform{}, false
	}
	copy(w.Perm[:], perm)
	mask := r.uvarint()
	if r.err != nil || mask >= 1<<uint(n) {
		r.fail("witness negation mask 0x%x has bits above variable %d", mask, n-1)
		return npn.Transform{}, false
	}
	w.NegMask = uint32(mask)
	w.OutNeg = r.byte() == 1
	if err := w.Validate(); err != nil {
		r.fail("bad witness: %v", err)
		return npn.Transform{}, false
	}
	return w, r.err == nil
}

// appendItemError appends a per-item error as status byte binStatusError
// followed by a varint-length-prefixed JSON Error object — the same object
// the JSON response embeds, so the error taxonomy cannot diverge between
// the two transports.
func appendItemError(dst []byte, e *Error) []byte {
	dst = append(dst, binStatusError)
	blob, err := json.Marshal(e)
	if err != nil {
		blob = []byte(`{"code":"internal","message":"error marshal failure"}`)
	}
	dst = appendUvarint(dst, uint64(len(blob)))
	return append(dst, blob...)
}

// readItemError decodes the per-item error payload after binStatusError.
func (r *binReader) readItemError() *Error {
	size := r.uvarint()
	if r.err != nil {
		return nil
	}
	blob := r.bytes(int(size))
	if r.err != nil {
		return nil
	}
	var e Error
	if err := json.Unmarshal(blob, &e); err != nil {
		r.fail("bad item error payload: %v", err)
		return nil
	}
	return &e
}

// EncodeBinaryClassify frames per-item classify outcomes: for every input,
// errs[i] (when set) as a JSON error payload, otherwise res[i] as a miss
// (status, key) or hit (status, key, index, witness, representative
// table packed from res[i].Rep). Keys travel as fixed 8 little-endian
// bytes — they are uniform 64-bit hashes, where a varint would cost more.
func EncodeBinaryClassify(res []Result, errs []*Error, crc bool) []byte {
	dst := appendBinaryHeader(make([]byte, 0, 64+32*len(res)), len(res), crc)
	for i := range res {
		if errs[i] != nil {
			dst = appendItemError(dst, errs[i])
			continue
		}
		rr := res[i]
		if !rr.Hit {
			dst = append(dst, binStatusMiss)
			dst = binary.LittleEndian.AppendUint64(dst, rr.Key)
			continue
		}
		dst = append(dst, binStatusHit)
		dst = binary.LittleEndian.AppendUint64(dst, rr.Key)
		dst = appendUvarint(dst, uint64(rr.Index))
		dst = appendWitness(dst, rr.Witness)
		dst = appendTT(dst, rr.Rep)
	}
	return finishBinaryFrame(dst, crc)
}

// DecodeBinaryClassify parses the frame EncodeBinaryClassify writes: one
// Result per item, an error item as a Result carrying only Err.
func DecodeBinaryClassify(data []byte) ([]Result, error) {
	r := &binReader{data: data}
	count, _ := r.header()
	if r.err != nil {
		return nil, r.err
	}
	if count > MaxBatch {
		return nil, fmt.Errorf("response declares %d items, limit %d", count, MaxBatch)
	}
	items := make([]Result, 0, count)
	for i := 0; i < count; i++ {
		switch status := r.byte(); status {
		case binStatusMiss:
			items = append(items, Result{Key: r.uint64()})
		case binStatusHit:
			it := Result{Hit: true, Key: r.uint64()}
			it.Index = int(r.uvarint())
			w, ok := r.readWitness()
			if !ok {
				return nil, r.err
			}
			it.Witness = w
			raw := r.bytes(ttBytes(w.N))
			if r.err != nil {
				return nil, r.err
			}
			rep, err := readTT(w.N, raw)
			if err != nil {
				return nil, fmt.Errorf("items[%d]: bad representative: %v", i, err)
			}
			it.Rep = rep
			items = append(items, it)
		case binStatusError:
			e := r.readItemError()
			if r.err != nil {
				return nil, r.err
			}
			items = append(items, Result{Err: e})
		default:
			if r.err != nil {
				return nil, r.err
			}
			return nil, fmt.Errorf("items[%d]: unknown status byte %d", i, status)
		}
		if r.err != nil {
			return nil, r.err
		}
	}
	return items, r.finish()
}

// EncodeBinaryInsert frames per-item insert outcomes: errs[i] (when set)
// as a JSON error payload, otherwise status created/existing followed by
// the fixed 8-byte key and the varint chain index. errs must already hold
// every outcome's own error — a relayed one, or not_durable for a
// journal-refused insert — exactly as the JSON response reports it.
func EncodeBinaryInsert(out []InsertOutcome, errs []*Error, crc bool) []byte {
	dst := appendBinaryHeader(make([]byte, 0, 16+12*len(out)), len(out), crc)
	for i, o := range out {
		if errs[i] != nil {
			dst = appendItemError(dst, errs[i])
			continue
		}
		status := byte(binStatusHit)
		if o.New {
			status = binStatusCreated
		}
		dst = append(dst, status)
		dst = binary.LittleEndian.AppendUint64(dst, o.Key)
		dst = appendUvarint(dst, uint64(o.Index))
	}
	return finishBinaryFrame(dst, crc)
}

// DecodeBinaryInsert parses the frame EncodeBinaryInsert writes: one
// InsertOutcome per item, an error item as an outcome carrying only Err.
func DecodeBinaryInsert(data []byte) ([]InsertOutcome, error) {
	r := &binReader{data: data}
	count, _ := r.header()
	if r.err != nil {
		return nil, r.err
	}
	if count > MaxBatch {
		return nil, fmt.Errorf("response declares %d items, limit %d", count, MaxBatch)
	}
	items := make([]InsertOutcome, 0, count)
	for i := 0; i < count; i++ {
		switch status := r.byte(); status {
		case binStatusHit, binStatusCreated:
			it := InsertOutcome{New: status == binStatusCreated, Key: r.uint64()}
			it.Index = int(r.uvarint())
			items = append(items, it)
		case binStatusError:
			e := r.readItemError()
			if r.err != nil {
				return nil, r.err
			}
			items = append(items, InsertOutcome{Err: e})
		default:
			if r.err != nil {
				return nil, r.err
			}
			return nil, fmt.Errorf("items[%d]: unknown status byte %d", i, status)
		}
		if r.err != nil {
			return nil, r.err
		}
	}
	return items, r.finish()
}

// uvarintLen returns the encoded length of v as an unsigned varint.
func uvarintLen(v uint64) int {
	return (bits.Len64(v|1) + 6) / 7
}
