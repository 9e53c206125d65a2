package sim

import (
	"testing"

	"rago/internal/trace"
)

// TestServeSimMaxInFlightBurst pins the shed-on-full semantics against
// the one case where they are exactly determined: a simultaneous burst
// against a bound admits precisely MaxInFlight requests and rejects the
// rest — the same accounting the live runtime's admission control
// produces (serve_test.go's TestRuntimeAdmissionControl counterpart).
func TestServeSimMaxInFlightBurst(t *testing.T) {
	pipe, prof, sched := serveSetup(t)
	s, err := simFor(pipe, prof, sched)
	if err != nil {
		t.Fatal(err)
	}
	const n, bound = 500, 32
	s.MaxInFlight = bound
	res, err := s.Run(trace.Burst(n), 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != bound || res.Rejected != n-bound {
		t.Errorf("burst of %d at bound %d: completed %d rejected %d, want exactly %d/%d",
			n, bound, res.Completed, res.Rejected, bound, n-bound)
	}
}

// TestServeSimMaxInFlightAccounting drives an overdriven Poisson trace
// through a small bound: every arrival is either completed or rejected,
// shedding actually happens, and an unbounded run of the same trace
// completes everything.
func TestServeSimMaxInFlightAccounting(t *testing.T) {
	pipe, prof, sched := serveSetup(t)
	const n = 2000
	reqs, err := trace.Poisson(n, 500, 11)
	if err != nil {
		t.Fatal(err)
	}
	s, err := simFor(pipe, prof, sched)
	if err != nil {
		t.Fatal(err)
	}
	s.MaxInFlight = 64
	res, err := s.Run(reqs, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed+res.Rejected != n {
		t.Errorf("completed %d + rejected %d != %d", res.Completed, res.Rejected, n)
	}
	if res.Rejected == 0 {
		t.Errorf("overdriven trace against MaxInFlight=64 should shed load")
	}
	open, err := simFor(pipe, prof, sched)
	if err != nil {
		t.Fatal(err)
	}
	full, err := open.Run(reqs, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if full.Completed != n || full.Rejected != 0 {
		t.Errorf("unbounded run completed %d rejected %d, want %d/0", full.Completed, full.Rejected, n)
	}
}
