package elastic

import (
	"slices"
	"strings"
	"testing"
	"time"
)

// drive steps p with jobs[i] jobs in the system at tick i, from a pool of
// start, and returns the pool after each tick and the reasons ("-" for a
// hold). On the clock the observations come at exact tick multiples, as
// the live loop's do; otherwise they come at a fixed time and each
// successor state is advanced by one tick, as internal/verify steps it.
func drive(p Policy, tick time.Duration, start int, jobs []int, clock bool) ([]int, string) {
	st, w, now := p.Init(), start, time.Time{}
	var pools []int
	var reasons []string
	for _, q := range jobs {
		var reason string
		st, w, reason = p.Step(st, QueueSignals(now, q, w, 0))
		if clock {
			now = now.Add(tick)
		} else {
			st = p.Advance(st, tick)
		}
		if reason == "" {
			reason = "-"
		}
		pools = append(pools, w)
		reasons = append(reasons, reason)
	}
	return pools, strings.Join(reasons, " ")
}

// The boundary table pins the reactive policy's decisions at the edges
// that matter — hysteresis band boundaries, cooldown expiry (including
// ticks that do not divide the cooldown), MaxStep clamping, and
// out-of-bounds pool corrections — as expected pool sizes and reasons per
// tick, driven both on the clock and the way the model checker drives it.
func TestReactivePolicyBoundaryTable(t *testing.T) {
	base := Config{
		MinWorkers:        2,
		MaxWorkers:        12,
		ScaleUpPressure:   1.5,
		ScaleDownPressure: 0.5,
		ScaleUpCooldown:   60 * time.Millisecond, // 3 ticks at 20ms, 2 at 35ms
		ScaleDownCooldown: 100 * time.Millisecond,
		ShrinkStableFor:   100 * time.Millisecond,
		MaxStep:           3,
	}
	cases := []struct {
		name    string
		tick    time.Duration
		start   int
		jobs    []int
		pools   []int
		reasons string
	}{
		// pressure == ScaleUpPressure exactly must hold (strict >); one job
		// more must grow.
		{"hysteresis upper edge", 20, 4, []int{6, 6, 7}, []int{4, 4, 5}, "- - backlog"},
		// pressure == ScaleDownPressure exactly keeps the low window shut
		// (strict <); below it must open, and the shrink fires only after
		// the stability window AND both cooldowns.
		{"hysteresis lower edge", 20, 4, []int{2, 2, 2, 2, 2, 2, 2, 2, 1, 1, 1, 1, 1, 1, 1},
			[]int{4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 3, 3}, "- - - - - - - - - - - - - idle -"},
		// A huge backlog wants far more than MaxStep allows.
		{"MaxStep clamp", 20, 4, []int{40, 40, 40, 40, 40, 40, 40},
			[]int{7, 7, 7, 10, 10, 10, 12}, "backlog - - backlog - - backlog"},
		// Growth at the ceiling, shrink at the floor: both must hold.
		{"bounds saturate", 20, 12, []int{40, 40, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
			[]int{12, 12, 12, 12, 12, 12, 12, 11, 11, 11, 11, 11, 10, 10, 10, 10},
			"- - - - - - - idle - - - - idle - - -"},
		// Out-of-bounds pools are corrected immediately, cooldowns ignored.
		{"floor correction", 20, 1, []int{0, 0, 0}, []int{2, 2, 2}, "floor - -"},
		{"ceiling correction", 20, 15, []int{0, 0, 0}, []int{12, 12, 12}, "ceiling - -"},
		// Cooldown expiry: grow, hold under cooldown for exactly its tick
		// count, then grow again the first admissible tick.
		{"cooldown expiry ticks", 20, 4, []int{8, 9, 9, 9, 14, 14, 14, 14},
			[]int{6, 6, 6, 6, 9, 9, 9, 10}, "backlog - - - backlog - - backlog"},
		// Low window interrupted right before the shrink would fire.
		{"shrink window reset", 20, 6, []int{1, 1, 1, 1, 9, 1, 1, 1, 1, 1, 1, 1},
			[]int{6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 5, 5}, "- - - - - - - - - - idle -"},
		// A 35ms tick divides neither cooldown: a grow is allowed again at
		// 70ms (two ticks), a shrink after 105ms of low load and cooldown.
		{"grow cooldown 35ms tick", 35, 4, []int{8, 9, 9, 9, 14, 14, 14, 14},
			[]int{6, 6, 6, 6, 9, 9, 10, 10}, "backlog - - - backlog - backlog -"},
		{"shrink cooldown 35ms tick", 35, 6, []int{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1},
			[]int{6, 6, 6, 5, 5, 5, 4, 4, 4, 3, 3, 3}, "- - - idle - - idle - - idle - -"},
	}
	p, err := NewReactive(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, clock := range []bool{true, false} {
				pools, reasons := drive(p, tc.tick*time.Millisecond, tc.start, tc.jobs, clock)
				if !slices.Equal(pools, tc.pools) || reasons != tc.reasons {
					t.Fatalf("clock=%v: pools %v (%s), want %v (%s)", clock, pools, reasons, tc.pools, tc.reasons)
				}
			}
		})
	}
}

// TestHybridOverlay pins the forecast overlay: the plan can only add
// capacity (capped at the ceiling and at MaxStep per tick), overrides a
// reactive shrink, and releases one worker per tick once it has sat two
// ticks below the pool with a one-worker cushion and the queue no deeper
// than the pool — never on the heels of another decision.
func TestHybridOverlay(t *testing.T) {
	type tick struct {
		sec, jobs, workers, plan, want int
		reason                         string
	}
	cases := []struct {
		name  string
		up    float64 // scale-up pressure; 0 takes the default
		ticks []tick
	}{
		{"forecast grows MaxStep at a time", 0, []tick{{0, 0, 4, 20, 7, "forecast"}}},
		{"plan capped at the ceiling", 0, []tick{{0, 0, 9, 20, 10, "forecast"}}},
		{"no opinion leaves the reactive grow", 0, []tick{{0, 20, 4, 0, 7, "backlog"}}},
		{"release after two low ticks", 0, []tick{
			{0, 0, 6, 2, 6, ""}, {0, 0, 6, 2, 5, "forecast-idle"}, {0, 0, 5, 2, 4, "forecast-idle"}}},
		{"one-worker cushion", 0, []tick{{0, 0, 6, 5, 6, ""}, {0, 0, 6, 5, 6, ""}, {0, 0, 6, 5, 6, ""}}},
		{"queue deeper than the pool", 3, []tick{{0, 13, 6, 2, 6, ""}, {0, 13, 6, 2, 6, ""}}},
		{"a grow resets the gate", 0, []tick{{0, 0, 6, 2, 6, ""}, {1, 40, 6, 2, 9, "backlog"}, {2, 0, 9, 2, 9, ""}}},
		{"plan overrides a reactive shrink", 0, []tick{{0, 0, 6, 0, 6, ""}, {10, 0, 6, 6, 6, "forecast"}}},
	}
	for _, tc := range cases {
		r, err := NewReactive(Config{MinWorkers: 2, MaxWorkers: 10, MaxStep: 3, ScaleUpPressure: tc.up})
		if err != nil {
			t.Fatal(err)
		}
		h := &Hybrid{Reactive: r}
		st := h.Init()
		for i, tk := range tc.ticks {
			sig := QueueSignals(time.Unix(int64(tk.sec), 0), tk.jobs, tk.workers, 0)
			sig.Plan = tk.plan
			var target int
			var reason string
			if st, target, reason = h.Step(st, sig); target != tk.want || reason != tk.reason {
				t.Fatalf("%s, tick %d: %d (%q), want %d (%q)", tc.name, i, target, reason, tk.want, tk.reason)
			}
		}
	}
}
