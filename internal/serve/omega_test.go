package serve

import (
	"context"
	"math"
	"net/http"
	"testing"

	"asymsort/internal/extmem"
)

// TestServeFixedOmegaDeterministicPlans posts the same ext job three
// times to one server. Each job must be planned with the configured ω,
// whatever ran before it: its k is ChooseK(ω, grant, B), its measured
// write ledger equals the simulated plan, and all three jobs charge the
// identical ledger and return the identical body. The spill dir is
// empty afterwards.
func TestServeFixedOmegaDeterministicPlans(t *testing.T) {
	const (
		block = 64
		omega = 8 // newTestService's ω; k = 3 at a 1024-record grant
	)
	s := newTestService(t, 1<<10, 2, block)

	keys := genKeys(20000, 7) // 40000 resident needed → ext
	want := sortedText(keys)
	for i := 0; i < 3; i++ {
		code, body, hdr := s.postSort(t, context.Background(), "", keysText(keys))
		if code != http.StatusOK {
			t.Fatalf("job %d: status %d: %s", i, code, body)
		}
		if hdr.Get("X-Asymsortd-Model") != "ext" {
			t.Fatalf("job %d: model %q, want ext", i, hdr.Get("X-Asymsortd-Model"))
		}
		if body != want {
			t.Fatalf("job %d: response is not the sorted key text", i)
		}
	}

	jobs := s.stats(t).Jobs
	if len(jobs) != 3 {
		t.Fatalf("jobs: %+v", jobs)
	}
	first := jobs[0]
	for _, j := range jobs {
		if j.Omega != omega {
			t.Errorf("job %d: omega %v, want the configured %v", j.ID, j.Omega, float64(omega))
		}
		if wantK := extmem.ChooseK(j.Omega, j.MemGrant, block); j.K != wantK {
			t.Errorf("job %d: k = %d, want ChooseK(%v, %d, %d) = %d",
				j.ID, j.K, j.Omega, j.MemGrant, block, wantK)
		}
		if j.Writes == 0 || j.Writes != j.PlanWrites {
			t.Errorf("job %d: ledger: writes %d, plan %d", j.ID, j.Writes, j.PlanWrites)
		}
		if j.Reads != first.Reads || j.Writes != first.Writes {
			t.Errorf("job %d: ledger (%d r, %d w) differs from job %d's (%d r, %d w)",
				j.ID, j.Reads, j.Writes, first.ID, first.Reads, first.Writes)
		}
	}
	if first.K < 2 {
		t.Errorf("k = %d: the configuration should exercise a wide merge", first.K)
	}
	assertSpillEmpty(t, s.tmp)
}

// TestNewServerRejectsBadOmega: ω is a device ratio every ext plan is
// built from, so a value no plan can use is refused at construction.
func TestNewServerRejectsBadOmega(t *testing.T) {
	b := newTestBroker(t, 1<<14, 1, 16*64)
	for _, w := range []float64{math.NaN(), math.Inf(-1), -1, 0, math.Inf(1)} {
		if _, err := NewServer(ServerConfig{Broker: b, Block: 64, Omega: w}); err == nil {
			t.Errorf("NewServer accepted omega %v", w)
		}
	}
	if _, err := NewServer(ServerConfig{Broker: b, Block: 64, Omega: 0.5}); err != nil {
		t.Errorf("NewServer rejected omega 0.5: %v", err)
	}
}
