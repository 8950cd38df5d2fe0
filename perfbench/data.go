package main

// Inputs, output verification, and order statistics. Every input is a
// set of unique (key, payload = index) records drawn from the run's seed;
// every output is checked for order and, with an order-independent
// checksum, for being a permutation of its input.

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"time"

	"asymsort/internal/seq"
	"asymsort/internal/wire"
	"asymsort/internal/xrand"
)

// records returns n unique records (uniform keys, payload = index) drawn
// from the stream (seed, tag).
func records(seed, tag uint64, n int) []seq.Record {
	rng := xrand.New(xrand.Mix(seed) ^ xrand.Mix(tag+1))
	recs := make([]seq.Record, n)
	for i := range recs {
		recs[i] = seq.Record{Key: rng.Next(), Val: uint64(i)}
	}
	return recs
}

// checksum is an order-independent digest of a record multiset. keysOnly
// digests keys alone, for text outputs that carry no payloads.
type checksum struct {
	n        int
	sum, xor uint64
}

func (c *checksum) add(r seq.Record, keysOnly bool) {
	h := xrand.Mix(r.Key)
	if !keysOnly {
		h = xrand.Mix(r.Key ^ xrand.Mix(r.Val))
	}
	c.n++
	c.sum += h
	c.xor ^= h
}

func digest(recs []seq.Record, keysOnly bool) checksum {
	var c checksum
	for _, r := range recs {
		c.add(r, keysOnly)
	}
	return c
}

// writeTextKeys writes the records' keys one per line, the CLI's text
// dialect.
func writeTextKeys(path string, recs []seq.Record) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriterSize(f, 1<<20)
	var line []byte
	for _, r := range recs {
		line = strconv.AppendUint(line[:0], r.Key, 10)
		line = append(line, '\n')
		bw.Write(line) // a write error sticks in bw and surfaces at Flush
	}
	return syncClose(f, bw)
}

// syncClose flushes, syncs and closes a freshly written input, so its
// write-back is over before any timed job reads it.
func syncClose(f *os.File, bw *bufio.Writer) error {
	if err := bw.Flush(); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	return f.Close()
}

// writeFrame writes the records as one contiguous wire frame: the layout
// the CLI and the daemon hand to the engine in place.
func writeFrame(path string, recs []seq.Record) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := wire.WriteContiguousHeader(bw, int64(len(recs))); err != nil {
		return err
	}
	raw := make([]byte, 1<<16*wire.RecordBytes)
	for len(recs) > 0 {
		n := min(len(recs), 1<<16)
		wire.EncodeRecords(raw[:n*wire.RecordBytes], recs[:n])
		if _, err := bw.Write(raw[:n*wire.RecordBytes]); err != nil {
			return err
		}
		recs = recs[n:]
	}
	return syncClose(f, bw)
}

// verifier folds an output stream into its checksum, failing at the first
// record out of order: keys ascending for keys-only text, strictly
// ascending (key, payload) otherwise.
type verifier struct {
	path     string
	keysOnly bool
	got      checksum
	prev     seq.Record
}

func (v *verifier) add(r seq.Record) error {
	if v.got.n > 0 && (v.keysOnly && r.Key < v.prev.Key || !v.keysOnly && !seq.TotalLess(v.prev, r)) {
		return fmt.Errorf("%s: not sorted at record %d", v.path, v.got.n)
	}
	v.prev = r
	v.got.add(r, v.keysOnly)
	return nil
}

// check fails unless the stream was a permutation of the input digested
// as want.
func (v *verifier) check(want checksum) error {
	if v.got != want {
		return fmt.Errorf("%s: %d records are not a permutation of the %d input records", v.path, v.got.n, want.n)
	}
	return nil
}

// verifyText checks a text output (one key per line) against the input's
// keys.
func verifyText(path string, want checksum) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	v := verifier{path: path, keysOnly: true}
	sc := bufio.NewScanner(bufio.NewReaderSize(f, 1<<20))
	for sc.Scan() {
		key, err := strconv.ParseUint(sc.Text(), 10, 64)
		if err != nil {
			return fmt.Errorf("%s line %d: %w", path, v.got.n+1, err)
		}
		if err := v.add(seq.Record{Key: key}); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return v.check(want)
}

// scanFrame decodes a wire frame (chunked or contiguous) and calls fn on
// each chunk of records in order.
func scanFrame(path string, fn func([]seq.Record) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fr, err := wire.NewReader(bufio.NewReaderSize(f, 1<<20))
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	buf := make([]seq.Record, 1<<14)
	for {
		n, err := fr.ReadRecords(buf)
		if n > 0 {
			if ferr := fn(buf[:n]); ferr != nil {
				return ferr
			}
		}
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
}

// verifyFrame checks a binary output frame against the input's records.
func verifyFrame(path string, want checksum) error {
	v := verifier{path: path}
	err := scanFrame(path, func(recs []seq.Record) error {
		for _, r := range recs {
			if err := v.add(r); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	return v.check(want)
}

// samePayload reports whether two frames carry the same records in the
// same order. Frames from different writers may chunk differently, so the
// record streams are compared, not the framing bytes.
func samePayload(a, b string) error {
	var recs []seq.Record
	if err := scanFrame(a, func(c []seq.Record) error { recs = append(recs, c...); return nil }); err != nil {
		return err
	}
	i := 0
	err := scanFrame(b, func(c []seq.Record) error {
		if i+len(c) > len(recs) || !slices.Equal(recs[i:i+len(c)], c) {
			return fmt.Errorf("%s and %s differ near record %d", a, b, i)
		}
		i += len(c)
		return nil
	})
	if err == nil && i != len(recs) {
		err = fmt.Errorf("%s has %d records, %s has %d", a, len(recs), b, i)
	}
	return err
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (NaN when xs is empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }
