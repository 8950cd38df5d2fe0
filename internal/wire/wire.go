// Package wire defines the binary columnar record frame the sort
// service and its clients speak: the hot-path alternative to
// newline-decimal text that moves seq.Records as raw little-endian
// bytes, so neither side ever runs strconv.ParseUint/AppendUint and a
// server can spool a request body straight into a staged record file
// (and stream a sorted record file straight back out) without decoding
// a single record.
//
// # Frame layout
//
// A frame is a 16-byte header followed by the payload. All integers
// are little-endian.
//
//	offset  size  field
//	0       4     magic "ASRF"
//	4       2     version (currently 1)
//	6       2     flags (bit 0: contiguous payload)
//	8       8     count: record count as int64, -1 when not yet known
//
// The header is exactly one seq.Record wide (extmem.RecordBytes), so a
// contiguous frame written to a file is itself a valid record file
// whose first record slot is the header — which is what lets a
// seekable contiguous frame be handed to the external-sort engine
// as the staged input itself (extmem.Config.InSkip = 1) with no
// staging copy at all.
//
// Payload, chunked (flags bit 0 clear): a sequence of chunks, each a
// uint32 record count n (0 < n ≤ MaxChunkRecs) followed by n raw
// 16-byte records (key uint64, then payload uint64, little-endian —
// exactly the on-disk layout of extmem record files), terminated by a
// zero uint32. Chunked frames can start streaming before the total
// count is known (count = -1); when count ≥ 0 the terminator-time
// total must match it.
//
// Payload, contiguous (flags bit 0 set): count×16 raw record bytes
// immediately after the header, no chunk prefixes or terminator.
// Contiguous frames require count ≥ 0.
//
// # Negotiation
//
// HTTP clients send a binary body with Content-Type ContentType and
// ask for a binary response with Accept ContentType; the server
// defaults the response wire to the request's. Everything else stays
// newline-decimal text, the default dialect.
//
// Malformed frames are reported as errors wrapping ErrFormat so
// servers can map client-data corruption to 400s while real IO errors
// stay 500s.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"asymsort/internal/seq"
)

// ContentType is the MIME type that negotiates the binary frame on
// /sort requests and responses.
const ContentType = "application/x-asymsort-records"

// RecordBytes is the payload footprint of one record (kept in sync
// with extmem.RecordBytes by a unit test; wire cannot import extmem —
// extmem has no business knowing about frames).
const RecordBytes = 16

// HeaderBytes is the frame header size — deliberately one record slot.
const HeaderBytes = 16

// Version is the frame version this package reads and writes.
const Version = 1

// MaxChunkRecs caps one chunk's record count (1 MiB of payload), which
// bounds every decoder's buffering regardless of what the peer sends.
const MaxChunkRecs = 1 << 16

// CountUnknown in the header's count field marks a chunked frame whose
// total is only learned at the terminator.
const CountUnknown = int64(-1)

var magic = [4]byte{'A', 'S', 'R', 'F'}

// ErrFormat is wrapped by every error that means the frame bytes
// themselves are malformed (bad magic, unsupported version, truncated
// chunk, count mismatch, oversized chunk) — the peer's fault, not the
// transport's.
var ErrFormat = errors.New("malformed record frame")

func formatErr(format string, args ...any) error {
	return fmt.Errorf("wire: %s: %w", fmt.Sprintf(format, args...), ErrFormat)
}

// Header is the decoded frame header.
type Header struct {
	// Count is the frame's record count, or CountUnknown for a chunked
	// frame that streams before its total is fixed.
	Count int64
	// Contiguous marks a frame whose payload is one raw unprefixed run
	// of Count records.
	Contiguous bool
}

// AppendHeader appends h's 16 encoded bytes to dst.
func AppendHeader(dst []byte, h Header) ([]byte, error) {
	if h.Contiguous && h.Count < 0 {
		return dst, fmt.Errorf("wire: contiguous frames need a known count")
	}
	if h.Count < 0 {
		h.Count = CountUnknown
	}
	var flags uint16
	if h.Contiguous {
		flags |= 1
	}
	dst = append(dst, magic[:]...)
	dst = binary.LittleEndian.AppendUint16(dst, Version)
	dst = binary.LittleEndian.AppendUint16(dst, flags)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(h.Count))
	return dst, nil
}

// ParseHeader decodes a 16-byte header.
func ParseHeader(raw []byte) (Header, error) {
	if len(raw) < HeaderBytes {
		return Header{}, formatErr("truncated header (%d of %d bytes)", len(raw), HeaderBytes)
	}
	if [4]byte(raw[:4]) != magic {
		return Header{}, formatErr("bad magic %q", raw[:4])
	}
	if v := binary.LittleEndian.Uint16(raw[4:6]); v != Version {
		return Header{}, formatErr("unsupported frame version %d (this build speaks %d)", v, Version)
	}
	flags := binary.LittleEndian.Uint16(raw[6:8])
	if flags&^1 != 0 {
		return Header{}, formatErr("unknown flags %#x", flags)
	}
	h := Header{
		Count:      int64(binary.LittleEndian.Uint64(raw[8:16])),
		Contiguous: flags&1 != 0,
	}
	if h.Count < 0 && h.Count != CountUnknown {
		return Header{}, formatErr("negative record count %d", h.Count)
	}
	if h.Contiguous && h.Count < 0 {
		return Header{}, formatErr("contiguous frame without a count")
	}
	return h, nil
}

// EncodeRecords encodes recs into raw (len(recs)*RecordBytes bytes).
func EncodeRecords(raw []byte, recs []seq.Record) {
	for i, r := range recs {
		binary.LittleEndian.PutUint64(raw[i*RecordBytes:], r.Key)
		binary.LittleEndian.PutUint64(raw[i*RecordBytes+8:], r.Val)
	}
}

// DecodeRecords decodes len(recs) records out of raw.
func DecodeRecords(recs []seq.Record, raw []byte) {
	for i := range recs {
		recs[i].Key = binary.LittleEndian.Uint64(raw[i*RecordBytes:])
		recs[i].Val = binary.LittleEndian.Uint64(raw[i*RecordBytes+8:])
	}
}

// Writer emits one frame. Zero-value is not usable; construct with
// NewWriter. Writers buffer internally only one chunk prefix — callers
// wanting fewer syscalls wrap w in a bufio.Writer.
type Writer struct {
	w       io.Writer
	count   int64 // announced count, CountUnknown when streaming
	written int64
	scratch []byte
	closed  bool
}

// NewWriter starts a chunked frame on w announcing count records
// (CountUnknown to stream an open-ended frame).
func NewWriter(w io.Writer, count int64) (*Writer, error) {
	hdr, err := AppendHeader(nil, Header{Count: count})
	if err != nil {
		return nil, err
	}
	if _, err := w.Write(hdr); err != nil {
		return nil, err
	}
	return &Writer{w: w, count: count}, nil
}

// WriteRecords appends recs to the frame as one or more chunks.
func (fw *Writer) WriteRecords(recs []seq.Record) error {
	for len(recs) > 0 {
		n := min(len(recs), MaxChunkRecs)
		need := 4 + n*RecordBytes
		if cap(fw.scratch) < need {
			fw.scratch = make([]byte, need)
		}
		raw := fw.scratch[:need]
		binary.LittleEndian.PutUint32(raw, uint32(n))
		EncodeRecords(raw[4:], recs[:n])
		if _, err := fw.w.Write(raw); err != nil {
			return err
		}
		fw.written += int64(n)
		recs = recs[n:]
	}
	return nil
}

// WriteRaw appends pre-encoded record bytes (a whole number of
// records — e.g. bytes read straight out of a sorted record file) to
// the frame as chunks, without decoding them.
func (fw *Writer) WriteRaw(raw []byte) error {
	if len(raw)%RecordBytes != 0 {
		return fmt.Errorf("wire: raw payload of %d bytes is not whole records", len(raw))
	}
	var prefix [4]byte
	for len(raw) > 0 {
		n := min(len(raw)/RecordBytes, MaxChunkRecs)
		binary.LittleEndian.PutUint32(prefix[:], uint32(n))
		if _, err := fw.w.Write(prefix[:]); err != nil {
			return err
		}
		if _, err := fw.w.Write(raw[:n*RecordBytes]); err != nil {
			return err
		}
		fw.written += int64(n)
		raw = raw[n*RecordBytes:]
	}
	return nil
}

// Close writes the terminator chunk. When the header announced a
// count, a mismatch with what was actually written is an error — the
// frame on the wire is already broken and the peer will reject it.
func (fw *Writer) Close() error {
	if fw.closed {
		return nil
	}
	fw.closed = true
	var term [4]byte
	if _, err := fw.w.Write(term[:]); err != nil {
		return err
	}
	if fw.count >= 0 && fw.written != fw.count {
		return fmt.Errorf("wire: frame announced %d records but wrote %d", fw.count, fw.written)
	}
	return nil
}

// WriteContiguousHeader writes the 16-byte contiguous-frame header for
// count records; the caller follows it with exactly count×16 raw
// payload bytes. This is the file dialect: header + raw record file.
func WriteContiguousHeader(w io.Writer, count int64) error {
	hdr, err := AppendHeader(nil, Header{Count: count, Contiguous: true})
	if err != nil {
		return err
	}
	_, err = w.Write(hdr)
	return err
}

// Reader decodes one frame from a stream, either dialect. It decodes
// and spools payload straight out of its bufio.Reader's buffer, so it
// holds no record-sized buffer of its own.
type Reader struct {
	r    *bufio.Reader
	hdr  Header
	read int64 // records consumed so far
	// remaining payload records in the current chunk (or, contiguous,
	// in the whole frame); -1 before the next chunk prefix is read
	chunk int64
	done  bool
}

// NewReader reads the header off r and returns a Reader positioned at
// the payload.
func NewReader(r io.Reader) (*Reader, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, 1<<16)
	}
	var raw [HeaderBytes]byte
	if _, err := io.ReadFull(br, raw[:]); err != nil {
		return nil, formatErr("truncated header: %v", err)
	}
	hdr, err := ParseHeader(raw[:])
	if err != nil {
		return nil, err
	}
	fr := &Reader{r: br, hdr: hdr, chunk: -1}
	if hdr.Contiguous {
		fr.chunk = hdr.Count
		fr.done = hdr.Count == 0
	}
	return fr, nil
}

// Header returns the decoded frame header.
func (fr *Reader) Header() Header { return fr.hdr }

// nextChunk advances past chunk prefixes until payload is available or
// the frame ends; it reports whether payload remains.
func (fr *Reader) nextChunk() (bool, error) {
	for fr.chunk <= 0 {
		if fr.done {
			return false, nil
		}
		var prefix [4]byte
		if _, err := io.ReadFull(fr.r, prefix[:]); err != nil {
			return false, formatErr("truncated at chunk prefix after %d records: %v", fr.read, err)
		}
		n := binary.LittleEndian.Uint32(prefix[:])
		if n == 0 {
			fr.done = true
			if fr.hdr.Count >= 0 && fr.read != fr.hdr.Count {
				return false, formatErr("frame announced %d records but carried %d", fr.hdr.Count, fr.read)
			}
			return false, nil
		}
		if n > MaxChunkRecs {
			return false, formatErr("chunk of %d records exceeds the %d cap", n, MaxChunkRecs)
		}
		fr.chunk = int64(n)
	}
	return true, nil
}

// payload consumes the next n payload records of the current chunk,
// handing them to fn in steps of at most the buffered reader's size
// taken straight out of its buffer. A frame that ends first is an
// ErrFormat naming the records consumed before the n.
func (fr *Reader) payload(n int64, fn func(raw []byte) error) error {
	step := int64(fr.r.Size() / RecordBytes * RecordBytes)
	for left := n * RecordBytes; left > 0; {
		raw, err := fr.r.Peek(int(min(left, step)))
		if err != nil {
			return formatErr("truncated mid-chunk after %d records: %v", fr.read, err)
		}
		if err := fn(raw); err != nil {
			return err
		}
		_, _ = fr.r.Discard(len(raw)) // the peeked bytes are buffered: cannot fail
		left -= int64(len(raw))
	}
	fr.read += n
	fr.chunk -= n
	if fr.hdr.Contiguous && fr.chunk == 0 {
		fr.done = true
	}
	return nil
}

// ReadRecords decodes up to len(buf) records, returning the count and
// io.EOF once the frame is exhausted (a clean end is (0, io.EOF)).
func (fr *Reader) ReadRecords(buf []seq.Record) (int, error) {
	if len(buf) == 0 {
		return 0, nil
	}
	filled := 0
	for filled < len(buf) {
		ok, err := fr.nextChunk()
		if err != nil {
			return filled, err
		}
		if !ok {
			if filled == 0 {
				return 0, io.EOF
			}
			return filled, nil
		}
		n := min(int64(len(buf)-filled), fr.chunk)
		dst := buf[filled : filled+int(n)]
		err = fr.payload(n, func(raw []byte) error {
			k := len(raw) / RecordBytes
			DecodeRecords(dst[:k], raw)
			dst = dst[k:]
			return nil
		})
		if err != nil {
			return filled, err
		}
		filled += int(n)
	}
	return filled, nil
}

// Spool copies the frame's payload to w as raw record bytes — no
// decode, the zero-copy staging path — validating the framing as it
// goes, and returns the record count. It writes straight out of the
// buffered reader, in steps of at most its size, and counts records a
// chunk's worth (at most MaxChunkRecs) at a time.
func (fr *Reader) Spool(w io.Writer) (int64, error) {
	for {
		ok, err := fr.nextChunk()
		if err != nil {
			return fr.read, err
		}
		if !ok {
			return fr.read, nil
		}
		err = fr.payload(min(fr.chunk, MaxChunkRecs), func(raw []byte) error {
			_, err := w.Write(raw)
			return err
		})
		if err != nil {
			return fr.read, err
		}
	}
}
