package serve

import (
	"fmt"
	"testing"

	"rago/internal/engine"
	"rago/internal/sim"
	"rago/internal/trace"
)

// formationConfigs are the batch-formation operating points the runtime
// tests sweep: the FIFO baseline, the two shape-aware policies, and
// chunked prefill at a 256-token quantum.
var formationConfigs = []struct {
	name    string
	policy  engine.BatchPolicy
	quantum int
}{
	{"fifo", engine.PolicyFIFO, 0},
	{"bucketed", engine.PolicyBucketed, 0},
	{"sorted", engine.PolicySorted, 0},
	{"chunked", engine.PolicyFIFO, 256},
}

// TestRuntimeBatchPolicyCrossCheck is the acceptance check for the
// batch-formation refactor: for every policy (and for chunked prefill),
// the live runtime's throughput must agree with the policy-aware
// analytical chain within 15% on the same heavy-tailed Case I trace, the
// live runtime must equal the discrete-event simulator, and the
// shape-aware policies must actually cut padding waste versus the FIFO
// baseline they replace.
//
// Throughput and padding are checked on a replay overdriven at 1.5x the
// policy-aware capacity, where formation matters, and mean TTFT on a
// second replay at 0.7x. The live runs are unpaced; the paced
// configurations are TestWallDriverMatchesHeapDriver's caseI-fifo,
// caseI-fifo-chunked and its bucketed and sorted mechanism rows.
func TestRuntimeBatchPolicyCrossCheck(t *testing.T) {
	pipe, prof, base := caseISetup(t)

	type outcome struct {
		qps, padWaste float64
	}
	results := make(map[string]outcome, len(formationConfigs))

	for _, cfg := range formationConfigs {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			sched := base
			sched.FormPolicy = cfg.policy
			sched.ChunkQuantum = cfg.quantum
			plan, err := engine.Compile(pipe, sched, prof)
			if err != nil {
				t.Fatal(err)
			}

			// replay serves n heavy-tailed requests arriving at load x the
			// policy-aware capacity, live and through the event sim;
			// capacity is the analytic QPS.
			replay := func(n int, load float64) (rep *ServerReport, res sim.ServeResult, capacity float64) {
				reqs, err := trace.Poisson(n, 1, 42) // rescaled below
				if err != nil {
					t.Fatal(err)
				}
				reqs = heavyShapes(t, reqs)
				capacity = plan.ShapeMetrics(shapesOf(reqs)).QPS
				for i := range reqs {
					reqs[i].Arrival /= load * capacity
				}
				rt, err := serverFor(pipe, prof, sched, Options{Speedup: unpaced})
				if err != nil {
					t.Fatal(err)
				}
				rep, err = rt.Serve(reqs)
				if err != nil {
					t.Fatal(err)
				}
				if rep.Completed != n {
					t.Fatalf("completed %d of %d at load %.1f", rep.Completed, n, load)
				}
				des, err := sim.NewServeFromPlan(plan)
				if err != nil {
					t.Fatal(err)
				}
				res, err = des.Run(reqs, 0.05)
				if err != nil {
					t.Fatal(err)
				}
				matchesSim(t, fmt.Sprintf("%s at load %.1f", cfg.name, load), &rep.Report, res)
				return rep, res, capacity
			}

			const n = 4000
			rep, res, capacity := replay(n, 1.5)
			if rep.BatchPolicy != cfg.policy.String() || rep.ChunkQuantum != cfg.quantum {
				t.Errorf("report misnames the formation config: %q/%d, want %q/%d",
					rep.BatchPolicy, rep.ChunkQuantum, cfg.policy.String(), cfg.quantum)
			}
			if cfg.quantum > 0 && rep.MeanChunkDepth <= 1 {
				t.Errorf("chunked run reports mean chunk depth %.2f, want > 1", rep.MeanChunkDepth)
			}
			within(t, cfg.name+" runtime QPS vs policy-aware analytic", rep.SustainedQPS, capacity, 0.15)

			sub, subRes, _ := replay(n/2, 0.7)
			within(t, cfg.name+" runtime mean TTFT vs event-sim at 0.7x load", sub.TTFT.Mean, subRes.MeanTTFT, 1e-9)
			if rep.PadWaste != res.PadWaste {
				t.Errorf("%s padding waste disagrees: runtime %v vs sim %v", cfg.name, rep.PadWaste, res.PadWaste)
			}
			results[cfg.name] = outcome{qps: rep.SustainedQPS, padWaste: rep.PadWaste}
		})
	}

	fifo, ok := results["fifo"]
	if !ok {
		t.Fatal("FIFO baseline never ran")
	}
	if fifo.padWaste <= 0.3 {
		t.Fatalf("FIFO baseline pad waste %.3f — the heavy-tailed mix should waste much more", fifo.padWaste)
	}
	for _, name := range []string{"bucketed", "sorted", "chunked"} {
		r, ok := results[name]
		if !ok {
			continue // its subtest already failed
		}
		if !(r.padWaste < fifo.padWaste) {
			t.Errorf("%s pad waste %.3f does not improve on FIFO's %.3f", name, r.padWaste, fifo.padWaste)
		}
	}
}

// TestRuntimeFormationInvariants is the policy-invariant property test:
// whatever the formation policy reorders or the chunk quantum splits,
// every admitted request is served exactly once — no starvation, no
// drops, no double-serves — under saturating heavy-tailed load. Sized to
// stay cheap under -race, which is how CI runs it.
func TestRuntimeFormationInvariants(t *testing.T) {
	pipe, prof, base := caseISetup(t)
	for _, cfg := range formationConfigs {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			sched := base
			sched.FormPolicy = cfg.policy
			sched.ChunkQuantum = cfg.quantum
			plan, err := engine.Compile(pipe, sched, prof)
			if err != nil {
				t.Fatal(err)
			}
			const n = 800
			reqs, err := trace.Poisson(n, 1, 7)
			if err != nil {
				t.Fatal(err)
			}
			reqs = heavyShapes(t, reqs)
			want := plan.ShapeMetrics(shapesOf(reqs))
			// 2x overdrive: the queue stays deep, so a policy that could
			// starve an unlucky bucket would starve it here.
			for i := range reqs {
				reqs[i].Arrival /= 2 * want.QPS
			}
			rt, err := serverFor(pipe, prof, sched, Options{Speedup: unpaced})
			if err != nil {
				t.Fatal(err)
			}
			rep, err := rt.Serve(reqs)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Completed != n || rep.Rejected != 0 {
				t.Errorf("%s: completed %d rejected %d of %d — formation lost or duplicated work",
					cfg.name, rep.Completed, rep.Rejected, n)
			}
			// Per-request latency accounting must cover the completions.
			if rep.Admitted != n || rep.Latency.Mean <= 0 {
				t.Errorf("%s: admitted %d of %d, mean latency %.4f — accounting hole",
					cfg.name, rep.Admitted, n, rep.Latency.Mean)
			}
		})
	}
}
