package verify

import (
	"math"
	"testing"

	"disarcloud/internal/loadgen"
)

// The cross-validation suite is the checker's own oracle: the MDP's
// predicted violation probability must describe the system it claims to
// verify, so each trace family compares the exact PViolation against the
// empirical violation frequency over hundreds of seeded loadgen replays of
// the same policy on the live clock, with sampled arrivals and completions.
//
// Tolerances are stated per family and derive from two error sources:
// Monte-Carlo error of the replay estimate (sigma <= 0.5/sqrt(n), so
// ~0.032 at n=250), and discretization error (zero for Bursty, whose MMPP
// the model captures exactly; a stated bias for Diurnal, whose sinusoid is
// bucketed into phase levels). Everything is seeded, so a tolerance breach
// is a real regression, not flakiness — and the replay statistics are
// pinned bit for bit, so any change to a policy or to the backlog tick
// shows up here even inside the tolerance.

func crossvalBase() Request {
	return Request{
		Policy:        PolicyReactive,
		MinWorkers:    4,
		MaxWorkers:    16,
		TickMS:        100,
		MeanRuntimeMS: 250,
		PhaseLevels:   4,
	}
}

func crossval(t *testing.T, req Request, replays int, tol float64, want ReplayStats) {
	t.Helper()
	rep, err := Check(req)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := Replay(req, replays)
	if err != nil {
		t.Fatal(err)
	}
	if stats != want {
		t.Fatalf("replay stats\n got %#v\nwant %#v", stats, want)
	}
	t.Logf("%s/%s K=%d: MDP P=%.4f over %d states; empirical %.4f over %d replays",
		req.Policy, req.Trace.Kind, req.SLA.QueueBound, rep.Properties.PViolation,
		rep.Properties.States, stats.Frequency, replays)
	if diff := math.Abs(rep.Properties.PViolation - stats.Frequency); diff > tol {
		t.Fatalf("MDP predicts P(queue >= %d within %d) = %.4f, empirical frequency %.4f: |diff| %.4f exceeds tolerance %.2f",
			req.SLA.QueueBound, req.SLA.HorizonTicks, rep.Properties.PViolation, stats.Frequency, diff, tol)
	}
}

// Bursty is a two-phase MMPP, which ModelFromSpec captures exactly: the
// only divergence budget is replay Monte-Carlo error. Two queue bounds,
// one in the frequently-violated regime and one in the tail.
func TestCrossValidationBurstyExact(t *testing.T) {
	req := crossvalBase()
	req.Trace = loadgen.Spec{Kind: loadgen.Bursty, Intervals: 256, Seed: 1, BaseRate: 1.5, PeakRate: 7}
	req.SLA = SLA{QueueBound: 24, HorizonTicks: 60, MaxProbability: 1}
	req.MaxQueue = 48
	crossval(t, req, 250, 0.08, ReplayStats{Replays: 250, Violations: 99, Frequency: 0.396,
		MeanWorkerSeconds: 40.08200000000004, MeanResizes: 5.204})

	req.SLA.QueueBound = 32
	req.MaxQueue = 64
	crossval(t, req, 250, 0.06, ReplayStats{Replays: 250, Violations: 26, Frequency: 0.104,
		MeanWorkerSeconds: 53.37480000000003, MeanResizes: 6.156})
}

// Diurnal is discretized into (level, branch) phases; the peak is smeared
// across its level bucket, so the model carries a stated small bias on top
// of Monte-Carlo error.
func TestCrossValidationDiurnalDiscretized(t *testing.T) {
	req := crossvalBase()
	req.Trace = loadgen.Spec{Kind: loadgen.Diurnal, Intervals: 256, Seed: 1, BaseRate: 1, PeakRate: 5, Period: 64}
	req.SLA = SLA{QueueBound: 28, HorizonTicks: 60, MaxProbability: 1}
	req.MaxQueue = 56
	crossval(t, req, 250, 0.05, ReplayStats{Replays: 250, Violations: 16, Frequency: 0.064,
		MeanWorkerSeconds: 60.029200000000024, MeanResizes: 6.652})
}

// The hybrid policy (reactive controller + forecast overlay) must be
// described as well: its perfect-forecast plan follows the sampled trace's
// rate profile in the replays and the discretized phase rates in the MDP.
func TestCrossValidationHybridBursty(t *testing.T) {
	req := crossvalBase()
	req.Policy = PolicyHybrid
	req.Headroom = 1.3
	req.Trace = loadgen.Spec{Kind: loadgen.Bursty, Intervals: 256, Seed: 1, BaseRate: 1.5, PeakRate: 7}
	req.SLA = SLA{QueueBound: 24, HorizonTicks: 60, MaxProbability: 1}
	req.MaxQueue = 48
	crossval(t, req, 200, 0.08, ReplayStats{Replays: 200, Violations: 49, Frequency: 0.245,
		MeanWorkerSeconds: 43.19950000000001, MeanResizes: 17.335})
}
