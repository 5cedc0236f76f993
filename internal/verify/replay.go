package verify

import (
	"errors"
	"fmt"
	"time"

	"disarcloud/internal/elastic"
	"disarcloud/internal/finmath"
	"disarcloud/internal/loadgen"
	"disarcloud/internal/rl"
)

// ReplayStats is the empirical side of cross-validation: the violation
// frequency (and mean cost/churn) observed over seeded trace replays of
// the policy through the sampled backlog the MDP sums over exactly.
type ReplayStats struct {
	Replays    int `json:"replays"`
	Violations int `json:"violations"`
	// Frequency is Violations/Replays — the quantity the MDP's PViolation
	// must predict within tolerance.
	Frequency float64 `json:"frequency"`
	// MeanWorkerSeconds and MeanResizes are the empirical counterparts of
	// the expected-cost and churn properties.
	MeanWorkerSeconds float64 `json:"mean_worker_seconds"`
	MeanResizes       float64 `json:"mean_resizes"`
}

// replaySeedStride spaces the per-replay trace seeds so consecutive
// replays share no loadgen substream.
const replaySeedStride = 1000003

// Replay measures the empirical violation frequency of a request over the
// given number of seeded trace replays. Each replay draws a fresh trace
// from the request's spec (seed advanced by a fixed stride) — real
// per-tick arrival counts instead of the MDP's discretized phases — and
// steps the requested policy on the live clock, at exact tick multiples,
// through rl.Backlog. A replay violates when the jobs-in-system count
// reaches the SLA's queue bound within the horizon.
func Replay(req Request, replays int) (ReplayStats, error) {
	if err := req.Validate(); err != nil {
		return ReplayStats{}, err
	}
	if replays < 1 {
		return ReplayStats{}, errors.New("verify: at least one replay required")
	}
	d := req.withDefaults()
	if d.Trace.WithDefaults().Intervals < d.SLA.HorizonTicks {
		return ReplayStats{}, fmt.Errorf("verify: trace has %d intervals, horizon needs %d",
			d.Trace.WithDefaults().Intervals, d.SLA.HorizonTicks)
	}
	pol, err := d.buildPolicy()
	if err != nil {
		return ReplayStats{}, err
	}
	tick := time.Duration(d.TickMS) * time.Millisecond
	tickSec := tick.Seconds()

	stats := ReplayStats{Replays: replays}
	for r := 0; r < replays; r++ {
		spec := d.Trace
		spec.Seed += uint64(r) * replaySeedStride
		counts, rates, err := loadgen.GenerateWithRates(spec)
		if err != nil {
			return ReplayStats{}, err
		}
		b := rl.NewBacklog(d.MaxQueue, tickSec, d.MeanRuntimeMS/1000, finmath.NewRNG(spec.Seed^0x5e71ca11))
		st, w := pol.Init(), d.InitialWorkers
		now := time.Unix(0, 0)
		workerSeconds, resizes := 0.0, 0.0
		for i := 0; i < d.SLA.HorizonTicks; i++ {
			var target int
			st, target, _ = pol.Step(st, elastic.QueueSignals(now, b.Queue, w, rates[i]))
			if target != w {
				resizes++
			}
			b.Tick(target, counts[i])
			w = target
			workerSeconds += float64(target) * tickSec
			now = now.Add(tick)
			if b.Queue >= d.SLA.QueueBound {
				stats.Violations++
				break
			}
		}
		stats.MeanWorkerSeconds += workerSeconds
		stats.MeanResizes += resizes
	}
	stats.Frequency = float64(stats.Violations) / float64(replays)
	stats.MeanWorkerSeconds /= float64(replays)
	stats.MeanResizes /= float64(replays)
	return stats, nil
}
