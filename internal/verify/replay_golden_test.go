package verify

import (
	"path/filepath"
	"testing"

	"disarcloud/internal/loadgen"
	"disarcloud/internal/rl"
)

// TestReplayGolden pins the seeded replays of the shipped Q-table's gate
// request bit for bit (the threshold policies' replays are pinned by the
// cross-validation suite): any change is a change to the policy, the
// backlog tick or the replay's seed mix — never noise.
func TestReplayGolden(t *testing.T) {
	tbl, err := rl.LoadTableFile(filepath.Join("..", "..", "testdata", "qtable_v1.json"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Replay(Request{
		Policy:        PolicyLearned,
		Table:         tbl,
		TickMS:        100,
		MeanRuntimeMS: 1000,
		MaxQueue:      64,
		Trace:         loadgen.Spec{Kind: loadgen.Diurnal, Intervals: 256, Seed: 1, BaseRate: 0.3, PeakRate: 1.2, Period: 64},
		SLA:           SLA{QueueBound: 32, HorizonTicks: 60, MaxProbability: 0.05},
	}, 250)
	if err != nil {
		t.Fatal(err)
	}
	want := ReplayStats{Replays: 250, Violations: 1, Frequency: 0.004, MeanWorkerSeconds: 44.148799999999994, MeanResizes: 35.788}
	if got != want {
		t.Fatalf("replay stats\n got %#v\nwant %#v", got, want)
	}
}
