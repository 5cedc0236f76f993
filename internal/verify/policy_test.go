package verify

import (
	"testing"
	"time"

	"disarcloud/internal/elastic"
	"disarcloud/internal/loadgen"
)

// A model whose pool starts outside the configured bounds (the config
// shrank underneath a running pool) corrects it on the first tick, as the
// live controller does: every initial state decides the nearest bound.
func TestReactivePolicyStartsOutOfBounds(t *testing.T) {
	cfg := elastic.Config{MinWorkers: 3, MaxWorkers: 6}
	pol, err := elastic.NewReactive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	am, err := ModelFromSpec(loadgen.Spec{Kind: loadgen.Bursty, Intervals: 64, Seed: 1, BaseRate: 1, PeakRate: 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ start, want int }{{9, 6}, {1, 3}} {
		mdp, err := Build(ServiceModel{
			Policy: pol, Arrivals: am, Tick: 50 * time.Millisecond,
			MeanRuntimeSeconds: 0.1, InitialWorkers: tc.start, MaxQueue: 16,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, w := range mdp.Init {
			if w > 0 && (mdp.Workers[i] != int32(tc.start) || mdp.Target[i] != int32(tc.want)) {
				t.Fatalf("start %d: initial state decides %d->%d, want %d", tc.start, mdp.Workers[i], mdp.Target[i], tc.want)
			}
		}
		for i := range mdp.Target {
			if mdp.Target[i] < 3 || mdp.Target[i] > 6 {
				t.Fatalf("start %d: state %d decides pool %d outside [3, 6]", tc.start, i, mdp.Target[i])
			}
		}
	}
}

func TestNewPolicyRejectsBadInputs(t *testing.T) {
	good := elastic.Config{MinWorkers: 1, MaxWorkers: 4}
	if _, err := PerfectHybrid(elastic.Config{MinWorkers: 5, MaxWorkers: 2}, time.Millisecond, 1.2, 0.1); err == nil {
		t.Error("hybrid accepted inverted bounds")
	}
	if _, err := PerfectHybrid(good, 0, 1.2, 0.1); err == nil {
		t.Error("accepted zero tick")
	}
	if _, err := PerfectHybrid(good, time.Millisecond, 1.2, 0); err == nil {
		t.Error("accepted zero mean runtime")
	}
	pol, err := PerfectHybrid(good, time.Millisecond, 1.2, 0.1)
	if err != nil || pol.Name() != PolicyHybrid {
		t.Fatalf("valid hybrid policy: %v, %v", pol, err)
	}
}
