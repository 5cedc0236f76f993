package rl

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"disarcloud/internal/elastic"
	"disarcloud/internal/finmath"
)

// Backlog is the clock-free queue model every simulator in the repository
// steps — training (Train), scoring (Simulate) and the verifier's
// empirical cross-check (verify.Replay) — and the one internal/verify's
// MDP encodes exactly: Queue jobs in the system, each busy worker
// completing its job in a tick with probability CompletionProb (geometric
// job durations with the configured mean), arrivals landing after
// completions, and the count clamped at a maximum.
type Backlog struct {
	Queue    int
	maxQueue int
	mu       float64
	rng      *finmath.RNG
}

// CompletionProb is the per-tick completion probability of one busy
// worker: min(1, tick/meanRuntime).
func CompletionProb(tickSeconds, meanRuntimeSeconds float64) float64 {
	return min(tickSeconds/meanRuntimeSeconds, 1)
}

// NewBacklog starts an empty backlog whose completions draw from rng.
func NewBacklog(maxQueue int, tickSeconds, meanRuntimeSeconds float64, rng *finmath.RNG) *Backlog {
	return &Backlog{maxQueue: maxQueue, mu: CompletionProb(tickSeconds, meanRuntimeSeconds), rng: rng}
}

// Tick advances one control tick on a pool of workers: min(Queue, workers)
// jobs are in service and each completes with the completion probability,
// then the arrivals land; arrivals past the maximum are dropped.
func (b *Backlog) Tick(workers, arrivals int) (completed, dropped int) {
	for busy := min(b.Queue, workers); busy > 0; busy-- {
		if b.rng.Float64() < b.mu {
			completed++
		}
	}
	b.Queue += arrivals - completed
	if b.Queue > b.maxQueue {
		dropped = b.Queue - b.maxQueue
		b.Queue = b.maxQueue
	}
	return completed, dropped
}

// SimConfig fixes the simulated control plane: the Backlog recursion, plus
// FIFO per-job latency tracking the MDP abstracts away.
type SimConfig struct {
	TickMS         int
	MeanRuntimeMS  float64
	MaxQueue       int
	QueueBound     int
	InitialWorkers int
	// Seed drives the completion draws; the arrival counts come in from
	// the caller already drawn.
	Seed uint64
}

// SimResult is one deterministic replay's scorecard.
type SimResult struct {
	// Ticks includes the drain tail after the trace ends.
	Ticks int
	// Jobs completed; Dropped counts arrivals refused at MaxQueue;
	// Unfinished counts jobs still queued when the drain cap hit.
	Jobs       int
	Dropped    int
	Unfinished int
	// Latency quantiles over completed jobs, in ticks from arrival to
	// completion (a job completing the tick it arrives scores 1).
	P50LatencyTicks float64
	P95LatencyTicks float64
	MaxLatencyTicks int
	// WorkerSeconds integrates the pool target over time; Resizes counts
	// target changes; ViolationTicks counts ticks with the jobs-in-system
	// count at or past QueueBound.
	WorkerSeconds  float64
	Resizes        int
	ViolationTicks int
	PeakWorkers    int
	MeanQueue      float64
}

// drainFactor caps the post-trace drain at this multiple of the trace
// length (plus a fixed floor), so a policy that starves the pool cannot
// hang the simulation; whatever remains queued is reported as Unfinished.
const drainFactor = 4

// Simulate replays one trace (per-tick arrival counts plus the
// deterministic rate profile the policy observes) through the backlog
// dynamics under the given policy, stepped at exact tick multiples.
// Everything is deterministic in (counts, rates, cfg.Seed, policy), which
// is what makes the policy comparison experiment bit-reproducible.
func Simulate(counts []int, rates []float64, pol elastic.Policy, cfg SimConfig) (SimResult, error) {
	if len(counts) == 0 || len(counts) != len(rates) {
		return SimResult{}, fmt.Errorf("rl: trace has %d counts and %d rates", len(counts), len(rates))
	}
	if cfg.TickMS < 1 || !(cfg.MeanRuntimeMS > 0) || math.IsInf(cfg.MeanRuntimeMS, 0) {
		return SimResult{}, errors.New("rl: simulation needs a positive tick and mean runtime")
	}
	if cfg.MaxQueue < 1 || cfg.QueueBound < 1 || cfg.QueueBound > cfg.MaxQueue {
		return SimResult{}, errors.New("rl: simulation needs 1 <= QueueBound <= MaxQueue")
	}
	if cfg.InitialWorkers < 1 {
		return SimResult{}, errors.New("rl: simulation needs at least one initial worker")
	}
	tick := time.Duration(cfg.TickMS) * time.Millisecond
	tickSec := float64(cfg.TickMS) / 1000
	b := NewBacklog(cfg.MaxQueue, tickSec, cfg.MeanRuntimeMS/1000, finmath.NewRNG(cfg.Seed^0x51a7e51a))

	// FIFO of arrival ticks, kept in step with the backlog count:
	// completions pop the oldest jobs, which is how the scheduler's queue
	// serves and what p95 latency means here.
	fifo := make([]int, 0, cfg.MaxQueue)
	var latencies []int
	var res SimResult
	st, w := pol.Init(), cfg.InitialWorkers
	now := time.Unix(0, 0)
	queueSum := 0
	maxTicks := drainFactor*len(counts) + 1000
	for i := 0; ; i++ {
		rate, arr := 0.0, 0
		if i < len(counts) {
			rate, arr = rates[i], counts[i]
		} else if b.Queue == 0 || i >= maxTicks {
			res.Ticks = i
			break
		}
		var target int
		st, target, _ = pol.Step(st, elastic.QueueSignals(now, b.Queue, w, rate))
		if target != w {
			res.Resizes++
		}
		completed, dropped := b.Tick(target, arr)
		for _, at := range fifo[:completed] {
			latencies = append(latencies, i-at+1)
		}
		fifo = fifo[completed:]
		for a := dropped; a < arr; a++ {
			fifo = append(fifo, i)
		}
		res.Dropped += dropped
		w = target
		res.PeakWorkers = max(res.PeakWorkers, w)
		res.WorkerSeconds += float64(w) * tickSec
		queueSum += b.Queue
		if b.Queue >= cfg.QueueBound {
			res.ViolationTicks++
		}
		now = now.Add(tick)
	}
	res.Jobs = len(latencies)
	res.Unfinished = b.Queue
	if res.Ticks > 0 {
		res.MeanQueue = float64(queueSum) / float64(res.Ticks)
	}
	if len(latencies) > 0 {
		sort.Ints(latencies)
		res.P50LatencyTicks = quantile(latencies, 0.50)
		res.P95LatencyTicks = quantile(latencies, 0.95)
		res.MaxLatencyTicks = latencies[len(latencies)-1]
	}
	return res, nil
}

// quantile reads the q-th quantile of sorted ints with linear
// interpolation between order statistics (the numpy/R-7 convention):
// latencies are whole ticks, and interpolating is what lets a p95 resolve
// "more of the mass sits below 5 ticks" instead of collapsing every policy
// to the same integer. Deterministic in its inputs.
func quantile(sorted []int, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if hi >= len(sorted) {
		hi = len(sorted) - 1
	}
	frac := pos - float64(lo)
	return float64(sorted[lo]) + frac*float64(sorted[hi]-sorted[lo])
}
