package serve

// The wire codec: one dialect-aware staging and streaming pipeline
// shared by every kernel job. A Codec value captures one direction's
// negotiated dialect; Stage spools a request body into the staged
// binary record file (fixing n), and Stream sends a result record file
// back out. The binary dialect moves internal/wire frames whose
// payload IS the staged on-disk format — no parse, no re-encode, a
// single buffered copy each way — while the text dialect parses
// decimal keys in (payload = line index, the repository-wide
// unique-pair convention) and renders keys (or "key value" pairs, for
// kernels whose payloads carry results) out.
//
// The codec is exported because the cluster coordinator speaks the
// same dialects: it stages client bodies with Stage, ships shards to
// workers as contiguous frames, and gathers sorted shard files back to
// the client with StreamFiles.

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"

	"asymsort/internal/extmem"
	"asymsort/internal/seq"
	"asymsort/internal/wire"
)

// stageChunk is the record granularity of the text dialect's staging
// and output batches.
const stageChunk = 1 << 14

// codecBuf sizes the codec's byte buffers: the staging and streaming
// writers, the frame reader, and the binary stream's raw file chunk.
const codecBuf = 64 << 10

// The per-job codec buffers are pooled: a daemon stages and streams
// every job through them, and fresh ones per job are garbage its heap
// grows to hold. They are small because the pool keeps them live
// between jobs; on a 2-vCPU host a 1 Mi-record frame staged and
// streamed as fast through 64 KiB buffers as through 1 MiB ones.
var (
	writerPool = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, codecBuf) }}
	readerPool = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, codecBuf) }}
	rawPool    = sync.Pool{New: func() any { return new([codecBuf]byte) }}
	recsPool   = sync.Pool{New: func() any { return new([stageChunk]seq.Record) }}
)

// getWriter returns a pooled writer onto w; putWriter drops its
// reference to w and returns it.
func getWriter(w io.Writer) *bufio.Writer {
	bw := writerPool.Get().(*bufio.Writer)
	bw.Reset(w)
	return bw
}

func putWriter(bw *bufio.Writer) {
	bw.Reset(nil)
	writerPool.Put(bw)
}

// maxLineBytes caps one text-dialect input line. A line is one decimal
// uint64 (≤ 20 digits); the cap is generous for whitespace junk while
// keeping a garbage body from ballooning the scanner's token buffer.
const maxLineBytes = 1 << 20

// Codec is one direction's negotiated wire dialect.
type Codec struct {
	// Binary selects internal/wire record frames over newline-decimal
	// text.
	Binary bool
	// WithVals makes text output render "key value" lines instead of
	// bare keys — the dialect of every kernel whose result payloads mean
	// something (group sums, bucket counts, join sums). Binary output
	// always carries whole records. Ignored for staging.
	WithVals bool
}

// Name returns the dialect name announced in X-Asymsortd-Wire.
func (c Codec) Name() string {
	if c.Binary {
		return "binary"
	}
	return "text"
}

// ContentType returns the response Content-Type for the dialect.
func (c Codec) ContentType() string {
	if c.Binary {
		return wire.ContentType
	}
	return "text/plain; charset=utf-8"
}

// Negotiate picks the request and response dialects: a binary
// Content-Type selects binary ingest, and the response mirrors the
// request unless the Accept header names a dialect explicitly.
func Negotiate(r *http.Request) (in, out Codec) {
	if ct := r.Header.Get("Content-Type"); ct != "" {
		if mt, _, err := mime.ParseMediaType(ct); err == nil && mt == wire.ContentType {
			in.Binary = true
		}
	}
	out.Binary = in.Binary
	if acc := r.Header.Get("Accept"); acc != "" {
		switch {
		case strings.Contains(acc, wire.ContentType):
			out.Binary = true
		case strings.Contains(acc, "text/plain"):
			out.Binary = false
		}
	}
	return in, out
}

// Stage spools a request body into the staged binary record file at
// dst and returns the payload record count n plus the file's leading
// skip: the number of non-payload record slots at the front of the
// staged file. A contiguous binary frame is staged header-in-place
// (the frame bytes ARE the staged file, skip = 1), which is the
// zero-copy handoff the engine consumes via extmem.Config.InSkip;
// every other dialect stages payload only (skip = 0).
func (c Codec) Stage(r io.Reader, dst string) (n, skip int, err error) {
	if c.Binary {
		return stageRecords(r, dst)
	}
	n, err = stageKeys(r, dst)
	return n, 0, err
}

// Stream sends the result record file at path (n records, no leading
// skip) to w in the codec's dialect.
func (c Codec) Stream(w io.Writer, path string, n int) error {
	return c.StreamFiles(w, []string{path}, n)
}

// StreamFiles sends the concatenation of the result record files at
// paths (n records in total) to w in the codec's dialect. This is the
// coordinator's gather: sorted shard files stream back-to-back as one
// frame (or one text body) without ever being merged on disk.
func (c Codec) StreamFiles(w io.Writer, paths []string, n int) error {
	bw := getWriter(w)
	defer putWriter(bw)
	if c.Binary {
		if err := streamRecords(paths, n, bw); err != nil {
			return err
		}
	} else {
		for _, path := range paths {
			if err := streamText(path, bw, c.WithVals); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// stageKeys parses one decimal uint64 key per line into a binary
// record file (payload = line index — the unique-pair convention every
// engine relies on) and returns the record count.
func stageKeys(r io.Reader, dst string) (int, error) {
	bf, err := extmem.CreateBlockFile(dst, 1, nil)
	if err != nil {
		return 0, err
	}
	defer bf.Close()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), maxLineBytes)
	recs := recsPool.Get().(*[stageChunk]seq.Record)
	defer recsPool.Put(recs)
	batch := recs[:0]
	off, line := 0, 0
	flush := func() error {
		if err := bf.WriteAt(off, batch); err != nil {
			return err
		}
		off += len(batch)
		batch = batch[:0]
		return nil
	}
	for sc.Scan() {
		txt := sc.Text()
		line++
		if txt == "" {
			continue
		}
		key, err := strconv.ParseUint(txt, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("input line %d: %v", line, err)
		}
		batch = append(batch, seq.Record{Key: key, Val: uint64(off + len(batch))})
		if len(batch) == cap(batch) {
			if err := flush(); err != nil {
				return 0, err
			}
		}
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return 0, fmt.Errorf("input line %d: line exceeds %d bytes", line+1, maxLineBytes)
		}
		return 0, err
	}
	if err := flush(); err != nil {
		return 0, err
	}
	return off, bf.Close()
}

// stageRecords spools a binary wire frame into the staged record file
// and returns the payload count plus the leading skip. A chunked frame
// spools payload only (skip 0); a contiguous frame is re-staged
// header-first, so the staged file is byte-identical to the frame and
// the engine reads the payload in place behind InSkip = 1 — the frame
// header occupies exactly one record slot by design. Either way the
// body is validated as it spools and never parsed record-by-record.
func stageRecords(r io.Reader, dst string) (int, int, error) {
	br := readerPool.Get().(*bufio.Reader)
	br.Reset(r)
	defer func() {
		br.Reset(nil)
		readerPool.Put(br)
	}()
	fr, err := wire.NewReader(br)
	if err != nil {
		return 0, 0, err
	}
	f, err := os.Create(dst)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	bw := getWriter(f)
	defer putWriter(bw)
	skip := 0
	if hdr := fr.Header(); hdr.Contiguous {
		raw, err := wire.AppendHeader(nil, hdr)
		if err != nil {
			return 0, 0, err
		}
		if _, err := bw.Write(raw); err != nil {
			return 0, 0, err
		}
		skip = 1
	}
	n, err := fr.Spool(bw)
	if err != nil {
		return 0, 0, err
	}
	if err := bw.Flush(); err != nil {
		return 0, 0, err
	}
	return int(n), skip, f.Close()
}

// streamText writes the result binary file out as text: bare keys one
// per line, or "key value" lines when the kernel's payloads carry
// results.
func streamText(binPath string, bw *bufio.Writer, withVals bool) error {
	bf, err := extmem.OpenBlockFile(binPath, 1, nil)
	if err != nil {
		return err
	}
	defer bf.Close()
	recs := recsPool.Get().(*[stageChunk]seq.Record)
	defer recsPool.Put(recs)
	buf := recs[:]
	var line []byte
	for off := 0; off < bf.Len(); off += len(buf) {
		if rem := bf.Len() - off; rem < len(buf) {
			buf = buf[:rem]
		}
		if err := bf.ReadAt(off, buf); err != nil {
			return err
		}
		for _, rec := range buf {
			line = strconv.AppendUint(line[:0], rec.Key, 10)
			if withVals {
				line = append(line, ' ')
				line = strconv.AppendUint(line, rec.Val, 10)
			}
			line = append(line, '\n')
			if _, err := bw.Write(line); err != nil {
				return err
			}
		}
	}
	return nil
}

// streamRecords streams the result record files out as one chunked
// binary frame with its count announced: raw file bytes feed the
// frame's chunks directly — no decode, no AppendUint pass. The
// Writer's count check at Close turns a short or long file into a hard
// error instead of a silently wrong frame.
func streamRecords(binPaths []string, n int, bw *bufio.Writer) error {
	fw, err := wire.NewWriter(bw, int64(n))
	if err != nil {
		return err
	}
	raw := rawPool.Get().(*[codecBuf]byte)
	defer rawPool.Put(raw)
	buf := raw[:]
	for _, binPath := range binPaths {
		f, err := os.Open(binPath)
		if err != nil {
			return err
		}
		for {
			m, err := io.ReadFull(f, buf)
			if m > 0 {
				if werr := fw.WriteRaw(buf[:m]); werr != nil {
					f.Close()
					return werr
				}
			}
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				break
			}
			if err != nil {
				f.Close()
				return err
			}
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return fw.Close()
}
