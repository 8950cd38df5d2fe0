package serve

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"asymsort/internal/seq"
	"asymsort/internal/wire"
)

// contiguousFrameOfKeys renders keys as a contiguous binary frame:
// header + raw payload, the dialect the cluster coordinator ships
// shards in.
func contiguousFrameOfKeys(t *testing.T, keys []uint64) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := wire.WriteContiguousHeader(&buf, int64(len(keys))); err != nil {
		t.Fatal(err)
	}
	raw := make([]byte, len(keys)*wire.RecordBytes)
	recs := make([]seq.Record, len(keys))
	for i, k := range keys {
		recs[i] = seq.Record{Key: k, Val: uint64(i)}
	}
	wire.EncodeRecords(raw, recs)
	buf.Write(raw)
	return buf.Bytes()
}

// TestStageContiguousInPlace: a contiguous frame stages header-first
// with skip = 1 and the staged file byte-identical to the frame — the
// zero-copy handoff extmem.Config.InSkip consumes — while a chunked
// frame of the same records stages payload-only with skip = 0.
func TestStageContiguousInPlace(t *testing.T) {
	dir := t.TempDir()
	keys := genKeys(1000, 21)
	frame := contiguousFrameOfKeys(t, keys)

	staged := filepath.Join(dir, "contig.bin")
	n, skip, err := Codec{Binary: true}.Stage(bytes.NewReader(frame), staged)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(keys) || skip != 1 {
		t.Fatalf("Stage(contiguous) = (%d, %d), want (%d, 1)", n, skip, len(keys))
	}
	got, err := os.ReadFile(staged)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, frame) {
		t.Fatal("staged contiguous file is not byte-identical to the frame")
	}

	staged = filepath.Join(dir, "chunked.bin")
	n, skip, err = Codec{Binary: true}.Stage(bytes.NewReader(frameOfKeys(t, keys, 128)), staged)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(keys) || skip != 0 {
		t.Fatalf("Stage(chunked) = (%d, %d), want (%d, 0)", n, skip, len(keys))
	}
	if got, err = os.ReadFile(staged); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, frame[wire.HeaderBytes:]) {
		t.Fatal("chunked staging did not spool the identical payload")
	}
}

// TestServeContiguousFrame: a contiguous-frame body runs through both
// models (InSkip = 1 end to end) and returns exactly what the chunked
// dialect returns.
func TestServeContiguousFrame(t *testing.T) {
	s := newTestService(t, 1<<14, 2, 64)
	for _, tc := range []struct {
		name, query string
		n           int
	}{
		{"native", "", 3000},
		{"ext", "?model=ext", 30000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			keys := genKeys(tc.n, int64(tc.n))
			resp, body := s.postRaw(t, tc.query, wire.ContentType, "", contiguousFrameOfKeys(t, keys))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %.300s", resp.StatusCode, body)
			}
			got := decodeFrame(t, body)
			want := sortedRecsOfKeys(keys)
			if len(got) != len(want) {
				t.Fatalf("%d records back, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("record %d: got %v want %v", i, got[i], want[i])
				}
			}
		})
	}
	// A truncated contiguous payload is the client's fault: 400, not a
	// hang or a 500.
	frame := contiguousFrameOfKeys(t, genKeys(100, 3))
	resp, body := s.postRaw(t, "", wire.ContentType, "", frame[:len(frame)-8])
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated contiguous frame: status %d: %.300s", resp.StatusCode, body)
	}
}

// TestCodecReusesBuffers: the codec's staging and streaming buffers
// are pooled, so once they are warm a Stage+Stream of a small binary
// frame allocates less than 64 KiB — not a fresh writer each way plus
// the frame reader's and the stream's chunk buffers — and one of a
// small text body less than 128 KiB, its line scanner's 64 KiB buffer
// included.
func TestCodecReusesBuffers(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets do not hold under -race")
	}
	keys := genKeys(100, 5)
	var text bytes.Buffer
	for _, k := range keys {
		fmt.Fprintf(&text, "%d\n", k)
	}
	for _, tc := range []struct {
		name   string
		codec  Codec
		body   []byte
		budget uint64
	}{
		{"binary", Codec{Binary: true}, frameOfKeys(t, keys, 64), 64 << 10},
		{"text", Codec{}, text.Bytes(), 128 << 10},
	} {
		dir := t.TempDir()
		job := func(i int) {
			staged := filepath.Join(dir, fmt.Sprintf("staged-%d.bin", i))
			n, _, err := tc.codec.Stage(bytes.NewReader(tc.body), staged)
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.codec.Stream(io.Discard, staged, n); err != nil {
				t.Fatal(err)
			}
		}
		// A pool keeps a per-P private item that a goroutine moved to
		// another P cannot see, and TotalAlloc counts every goroutine,
		// so warm up a few jobs and take the least of a few measured.
		for i := range 4 {
			job(i)
		}
		got := uint64(math.MaxUint64)
		for i := range 5 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			job(4 + i)
			runtime.ReadMemStats(&after)
			got = min(got, after.TotalAlloc-before.TotalAlloc)
		}
		t.Logf("%s: a warm Stage+Stream allocated %d bytes", tc.name, got)
		if got >= tc.budget {
			t.Errorf("%s: a warm Stage+Stream allocated %d bytes, budget %d", tc.name, got, tc.budget)
		}
	}
}
