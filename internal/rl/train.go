package rl

import (
	"time"

	"disarcloud/internal/elastic"
	"disarcloud/internal/finmath"
	"disarcloud/internal/loadgen"
	"disarcloud/internal/ml"
)

// trainSeedStride spaces per-episode trace seeds (a large prime, as the
// verifier's replay harness uses) so no two episodes share a loadgen
// substream.
const trainSeedStride = 1000003

// Train runs offline Q-learning against the deterministic simulator and
// returns the learned table. Episodes cycle through the spec's trace
// families; within an episode the agent steps the same Backlog Simulate
// and verify.Replay use, picks actions epsilon-greedily with
// the exploration rate decaying linearly to a tenth of its initial value,
// and updates Q[s][a] += alpha * (r + gamma * max_a' Q[s'][a'] - Q[s][a]).
// With Spec.Bandit the discount is forced to zero — the contextual-bandit
// baseline that scores actions by immediate reward only.
//
// Everything — trace generation, completion draws, exploration — derives
// from Spec.Seed, so two Train calls with the same spec produce
// byte-identical tables (the determinism contract the freshness test
// pins).
func Train(spec Spec) (*Table, error) {
	t, err := NewTable(spec)
	if err != nil {
		return nil, err
	}
	gamma := spec.Gamma
	if spec.Bandit {
		gamma = 0
	}
	tickSec := spec.TickSeconds()
	explore := finmath.NewRNG(spec.Seed ^ 0xe8b7015e)
	for ep := 0; ep < spec.Episodes; ep++ {
		trace := spec.Traces[ep%len(spec.Traces)]
		trace.Seed += uint64(ep) * trainSeedStride
		counts, rates, err := loadgen.GenerateWithRates(trace)
		if err != nil {
			return nil, err
		}
		// Exploration decays linearly from Epsilon to Epsilon/10.
		eps := spec.Epsilon
		if spec.Episodes > 1 {
			eps *= 1 - 0.9*float64(ep)/float64(spec.Episodes-1)
		}
		env := NewBacklog(spec.MaxQueue, tickSec, spec.MeanRuntimeSeconds(),
			finmath.NewRNG(spec.Seed^0x0e50de^uint64(ep)*trainSeedStride))
		st, w := t.Init(), spec.MinWorkers
		for i := range counts {
			sig := elastic.QueueSignals(time.Time{}, env.Queue, w, rates[i])
			idx := t.StateIndex(st, sig)
			var action int
			if explore.Float64() < eps {
				action = explore.Intn(spec.NumActions())
			} else {
				action = ml.Argmax(t.Q[idx])
			}
			st2, target, _ := t.Apply(st, sig, action)
			env.Tick(target, counts[i])
			q2 := env.Queue

			reward := -spec.CostWeight * float64(target) * tickSec
			if target != w {
				reward -= spec.ChurnWeight
			}
			if q2 >= spec.QueueBound {
				reward -= spec.SLAWeight
			}
			// The latency penalty charges WAITING jobs — in-system beyond the
			// pool — not jobs in service: a pool sized to its backlog waits
			// nothing, so this term is what teaches the policy to track demand
			// instead of blanket over-provisioning.
			waiting := min(max(q2-target, 0), spec.QueueBound)
			reward -= spec.QueueWeight * float64(waiting) / float64(spec.QueueBound)

			// The successor observation sees the next tick's profile rate —
			// what the policy will actually be shown there.
			nextRate := rates[i]
			if i+1 < len(rates) {
				nextRate = rates[i+1]
			}
			idx2 := t.StateIndex(st2, elastic.QueueSignals(time.Time{}, env.Queue, target, nextRate))
			best := t.Q[idx2][ml.Argmax(t.Q[idx2])]
			t.Q[idx][action] += spec.Alpha * (reward + gamma*best - t.Q[idx][action])

			st, w = st2, target
		}
	}
	return t, nil
}
