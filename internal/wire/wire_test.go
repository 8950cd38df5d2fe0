package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"

	"asymsort/internal/seq"
)

// encodeFrame renders a chunked frame for recs with the given
// announced count and chunk sizes (records per chunk, cycled).
func encodeFrame(t *testing.T, recs []seq.Record, count int64, chunkRecs int) []byte {
	t.Helper()
	var buf bytes.Buffer
	fw, err := NewWriter(&buf, count)
	if err != nil {
		t.Fatal(err)
	}
	for len(recs) > 0 {
		n := min(chunkRecs, len(recs))
		if err := fw.WriteRecords(recs[:n]); err != nil {
			t.Fatal(err)
		}
		recs = recs[n:]
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decodeAll drains a frame through ReadRecords with a deliberately
// awkward buffer size.
func decodeAll(t *testing.T, raw []byte, bufRecs int) ([]seq.Record, error) {
	t.Helper()
	fr, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	var out []seq.Record
	buf := make([]seq.Record, bufRecs)
	for {
		n, err := fr.ReadRecords(buf)
		out = append(out, buf[:n]...)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
	}
}

// TestFrameRoundTrip drives encode→decode across the edge-case table:
// empty frame, single record, chunk-boundary-exact payloads, unknown
// counts, contiguous frames, and odd decode buffer sizes.
func TestFrameRoundTrip(t *testing.T) {
	cases := []struct {
		name      string
		n         int
		count     int64 // announced; CountUnknown for streaming
		chunkRecs int
		bufRecs   int
	}{
		{"empty", 0, 0, 8, 4},
		{"empty streaming", 0, CountUnknown, 8, 4},
		{"single", 1, 1, 8, 4},
		{"single tiny chunks", 1, 1, 1, 1},
		{"chunk-boundary exact", 64, 64, 16, 16},
		{"chunk-boundary exact odd buf", 64, 64, 16, 7},
		{"one max chunk exactly", MaxChunkRecs, int64(MaxChunkRecs), MaxChunkRecs, 1000},
		{"streaming unknown count", 777, CountUnknown, 100, 64},
		{"ragged chunks", 1000, 1000, 17, 256},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			recs := seq.Uniform(tc.n, 42)
			raw := encodeFrame(t, recs, tc.count, tc.chunkRecs)
			got, err := decodeAll(t, raw, tc.bufRecs)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(recs) {
				t.Fatalf("decoded %d records, want %d", len(got), len(recs))
			}
			for i := range recs {
				if got[i] != recs[i] {
					t.Fatalf("record %d: got %v want %v", i, got[i], recs[i])
				}
			}
			// The spool path must produce the identical raw payload.
			fr, err := NewReader(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			var spooled bytes.Buffer
			n, err := fr.Spool(&spooled)
			if err != nil {
				t.Fatal(err)
			}
			if n != int64(len(recs)) {
				t.Fatalf("spooled %d records, want %d", n, len(recs))
			}
			want := make([]byte, len(recs)*RecordBytes)
			EncodeRecords(want, recs)
			if !bytes.Equal(spooled.Bytes(), want) {
				t.Fatal("spooled payload differs from the encoded records")
			}
		})
	}
}

// TestFrameContiguous round-trips the file dialect.
func TestFrameContiguous(t *testing.T) {
	for _, n := range []int{0, 1, 64, 1000} {
		recs := seq.Uniform(n, 7)
		var buf bytes.Buffer
		if err := WriteContiguousHeader(&buf, int64(n)); err != nil {
			t.Fatal(err)
		}
		raw := make([]byte, n*RecordBytes)
		EncodeRecords(raw, recs)
		buf.Write(raw)

		got, err := decodeAll(t, buf.Bytes(), 13)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != n {
			t.Fatalf("n=%d: decoded %d records", n, len(got))
		}
		for i := range recs {
			if got[i] != recs[i] {
				t.Fatalf("n=%d: record %d differs", n, i)
			}
		}
		hdr, err := ParseHeader(buf.Bytes())
		if err != nil || !hdr.Contiguous || hdr.Count != int64(n) {
			t.Fatalf("header %+v, err %v", hdr, err)
		}
	}
}

// TestFrameMalformed feeds every flavour of broken frame to both
// decode paths: all must fail fast with an ErrFormat-wrapped error —
// never hang, never succeed.
func TestFrameMalformed(t *testing.T) {
	good := encodeFrame(t, seq.Uniform(100, 3), 100, 32)
	corrupt := func(mut func(raw []byte) []byte) []byte {
		raw := bytes.Clone(good)
		return mut(raw)
	}
	cases := []struct {
		name string
		raw  []byte
	}{
		{"empty input", nil},
		{"truncated header", good[:HeaderBytes-3]},
		{"bad magic", corrupt(func(raw []byte) []byte { raw[0] = 'X'; return raw })},
		{"version mismatch", corrupt(func(raw []byte) []byte {
			binary.LittleEndian.PutUint16(raw[4:6], Version+1)
			return raw
		})},
		{"unknown flags", corrupt(func(raw []byte) []byte {
			binary.LittleEndian.PutUint16(raw[6:8], 0x80)
			return raw
		})},
		{"truncated mid-chunk", good[:HeaderBytes+4+11]},
		{"truncated at chunk prefix", good[:HeaderBytes+4+32*RecordBytes+2]},
		{"missing terminator", good[:len(good)-4]},
		{"count over actual", corrupt(func(raw []byte) []byte {
			binary.LittleEndian.PutUint64(raw[8:16], 101)
			return raw
		})},
		{"count under actual", corrupt(func(raw []byte) []byte {
			binary.LittleEndian.PutUint64(raw[8:16], 3)
			return raw
		})},
		{"oversized chunk prefix", corrupt(func(raw []byte) []byte {
			binary.LittleEndian.PutUint32(raw[HeaderBytes:], MaxChunkRecs+1)
			return raw
		})},
		{"contiguous without count", func() []byte {
			raw := make([]byte, HeaderBytes)
			copy(raw, good[:HeaderBytes])
			binary.LittleEndian.PutUint16(raw[6:8], 1) // contiguous
			binary.LittleEndian.PutUint64(raw[8:16], ^uint64(0))
			return raw
		}()},
		{"contiguous truncated payload", func() []byte {
			var buf bytes.Buffer
			if err := WriteContiguousHeader(&buf, 10); err != nil {
				t.Fatal(err)
			}
			buf.Write(make([]byte, 5*RecordBytes))
			return buf.Bytes()
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := decodeAll(t, tc.raw, 16); !errors.Is(err, ErrFormat) {
				t.Fatalf("ReadRecords: err = %v, want ErrFormat", err)
			}
			fr, err := NewReader(bytes.NewReader(tc.raw))
			if err != nil {
				if !errors.Is(err, ErrFormat) {
					t.Fatalf("NewReader: err = %v, want ErrFormat", err)
				}
				return
			}
			if _, err := fr.Spool(io.Discard); !errors.Is(err, ErrFormat) {
				t.Fatalf("Spool: err = %v, want ErrFormat", err)
			}
		})
	}
}

// TestWriterCountMismatch: a Writer that lied about its announced
// count must say so at Close.
func TestWriterCountMismatch(t *testing.T) {
	var buf bytes.Buffer
	fw, err := NewWriter(&buf, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.WriteRecords(seq.Uniform(3, 1)); err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err == nil {
		t.Fatal("Close accepted a 3-record frame announced as 5")
	}
}

// TestWriteRaw: raw bytes (the zero-copy egress path) must produce a
// frame identical to the record path, and reject ragged payloads.
func TestWriteRaw(t *testing.T) {
	recs := seq.Uniform(500, 11)
	raw := make([]byte, len(recs)*RecordBytes)
	EncodeRecords(raw, recs)

	var viaRaw bytes.Buffer
	fw, err := NewWriter(&viaRaw, int64(len(recs)))
	if err != nil {
		t.Fatal(err)
	}
	// Feed raw bytes in awkward (but record-aligned) pieces.
	for off := 0; off < len(raw); {
		n := min(37*RecordBytes, len(raw)-off)
		if err := fw.WriteRaw(raw[off : off+n]); err != nil {
			t.Fatal(err)
		}
		off += n
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := decodeAll(t, viaRaw.Bytes(), 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d differs", i)
		}
	}
	if err := fw.WriteRaw(make([]byte, RecordBytes+1)); err == nil {
		t.Fatal("WriteRaw accepted a ragged payload")
	}
}

// TestReaderSteps: ReadRecords and Spool work straight out of the
// bufio.Reader's buffer in steps of at most its size. A 16-byte reader
// (one record per step) must decode what a 64 KiB one does, and a frame
// cut mid-chunk must fail with ErrFormat after the same record count
// on both — the records of the failed read's completed steps are not
// counted.
func TestReaderSteps(t *testing.T) {
	recs := seq.Uniform(100, 5)
	good := encodeFrame(t, recs, 100, 32)
	// Cut 20 records and 5 bytes into the second 32-record chunk.
	cut := good[:HeaderBytes+4+32*RecordBytes+4+20*RecordBytes+5]
	for _, size := range []int{16, 1 << 16} {
		open := func(raw []byte) *Reader {
			fr, err := NewReader(bufio.NewReaderSize(bytes.NewReader(raw), size))
			if err != nil {
				t.Fatal(err)
			}
			return fr
		}
		drain := func(raw []byte, bufRecs int) ([]seq.Record, error) {
			fr := open(raw)
			var out []seq.Record
			buf := make([]seq.Record, bufRecs)
			for {
				n, err := fr.ReadRecords(buf)
				out = append(out, buf[:n]...)
				if err == io.EOF {
					return out, nil
				}
				if err != nil {
					return out, err
				}
			}
		}
		if got, err := drain(good, 100); err != nil || !slices.Equal(got, recs) {
			t.Fatalf("size %d: decoded %d records (err %v), want the 100 written", size, len(got), err)
		}
		for _, tc := range []struct{ bufRecs, want int }{{100, 32}, {16, 48}} {
			got, err := drain(cut, tc.bufRecs)
			if !errors.Is(err, ErrFormat) || len(got) != tc.want {
				t.Fatalf("size %d, buffer %d: decoded %d records with err %v, want %d and ErrFormat",
					size, tc.bufRecs, len(got), err, tc.want)
			}
			if !slices.Equal(got, recs[:tc.want]) {
				t.Fatalf("size %d, buffer %d: the records before the cut differ", size, tc.bufRecs)
			}
			if msg := fmt.Sprintf("after %d records", tc.want); !strings.Contains(err.Error(), msg) {
				t.Fatalf("size %d, buffer %d: error %q does not say %q", size, tc.bufRecs, err, msg)
			}
		}
		var spooled bytes.Buffer
		if n, err := open(good).Spool(&spooled); err != nil || n != 100 || spooled.Len() != 100*RecordBytes {
			t.Fatalf("size %d: spooled %d records, %d bytes (err %v)", size, n, spooled.Len(), err)
		}
		if n, err := open(cut).Spool(io.Discard); !errors.Is(err, ErrFormat) || n != 32 {
			t.Fatalf("size %d: spooled a cut frame as %d records with err %v, want 32 and ErrFormat", size, n, err)
		}
	}
}
