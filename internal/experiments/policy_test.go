package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"disarcloud/internal/rl"
)

// TestRunPolicyComparison pins the `experiments -run policy` table (the
// EXPERIMENTS.md policy comparison) byte for byte on the shipped Q-table:
// every replay is seeded and clock-free, so any difference is a change to a
// policy or to the backlog simulator. Every reported win must also satisfy
// the acceptance inequality, and a malformed table is rejected.
func TestRunPolicyComparison(t *testing.T) {
	tbl, err := rl.LoadTableFile(filepath.Join("..", "..", "testdata", "qtable_v1.json"))
	if err != nil {
		t.Fatal(err)
	}
	pc, err := RunPolicyComparison(tbl)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	pc.Print(&out)
	out.WriteString("\n") // cmd/experiments ends each report with a blank line
	want, err := os.ReadFile(filepath.Join("testdata", "policy_table.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("policy table differs from testdata/policy_table.golden:\n%s", out.String())
	}

	for _, trace := range pc.LearnedWins() {
		l, _ := pc.row(trace, "learned")
		h, _ := pc.row(trace, "hybrid")
		if l.Result.P95LatencyTicks >= h.Result.P95LatencyTicks ||
			l.Result.WorkerSeconds > h.Result.WorkerSeconds {
			t.Fatalf("%s reported as a win but learned %+v vs hybrid %+v", trace, l.Result, h.Result)
		}
	}

	bad := *tbl
	bad.Q = bad.Q[:1]
	if _, err := RunPolicyComparison(&bad); err == nil {
		t.Fatal("RunPolicyComparison accepted a malformed table")
	}
}
