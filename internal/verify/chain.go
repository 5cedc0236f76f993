// Package verify model-checks scaling policies before the service trusts
// them. Following Naskos et al. (arXiv:1405.4699), an elasticity policy is
// composed with a discretized arrival model into a finite Markov decision
// process — the policy resolves every capacity choice deterministically, so
// the composition is a finite discrete-time Markov chain — and exact
// properties are computed by value iteration: the probability the queue
// reaches a depth K within a horizon, the expected worker-seconds billed
// over the horizon, and the expected resize churn (flapping). A grid
// sweeper evaluates whole threshold/headroom/cooldown families and emits
// the Pareto front of SLA-violation probability versus cost, and Check is
// the CI gate: it fails the build when the shipped default elastic
// configuration violates a stated SLA bound.
//
// The policy checked is the code the service runs: the builder enumerates
// the elastic.Policy step function itself (reactive, hybrid, or a learned
// rl.Table), so a verified bound covers the deployed policy by
// construction.
//
// Everything in this package is pure and bit-deterministic: state spaces
// are enumerated and canonically ordered, transition rows are sorted, and
// value iteration accumulates in a fixed order, so the same request always
// produces the same float64 bits. The model's soundness caveats (service
// abstraction, forecast idealization, queue truncation) are documented on
// ServiceModel and in DESIGN.md.
package verify

import (
	"errors"
	"fmt"
	"math"
)

// Edge is one transition of a chain under construction: probability P of
// moving to state To.
type Edge struct {
	To int
	P  float64
}

// Chain is a finite discrete-time Markov chain in compressed sparse row
// form: the edges of state i are Succ/Prob[Start[i]:Start[i+1]]. Rows are
// kept in ascending successor order, and all value-iteration passes walk
// rows in index order, so results are bit-deterministic for a given chain.
type Chain struct {
	Start []int32
	Succ  []int32
	Prob  []float64
}

// probTol is the slack allowed on a row's total probability: discretized
// rows are built from float divisions and convolutions, so exact unity is
// not attainable, but anything beyond accumulated rounding is a modeling
// bug.
const probTol = 1e-9

// NewChain builds a validated chain from per-state edge lists. Edges within
// a row are sorted by successor (duplicates merged), so two logically equal
// inputs produce the same chain regardless of edge order.
func NewChain(rows [][]Edge) (*Chain, error) {
	n := len(rows)
	if n == 0 {
		return nil, errors.New("verify: chain needs at least one state")
	}
	c := &Chain{Start: make([]int32, n+1)}
	for i, row := range rows {
		if len(row) == 0 {
			return nil, fmt.Errorf("verify: state %d has no outgoing transitions", i)
		}
		edges := append([]Edge(nil), row...)
		// Insertion sort by successor: rows are short and usually sorted.
		for a := 1; a < len(edges); a++ {
			for b := a; b > 0 && edges[b].To < edges[b-1].To; b-- {
				edges[b], edges[b-1] = edges[b-1], edges[b]
			}
		}
		sum := 0.0
		for k, e := range edges {
			if e.To < 0 || e.To >= n {
				return nil, fmt.Errorf("verify: state %d transitions to out-of-range state %d", i, e.To)
			}
			if !(e.P >= 0) || e.P > 1+probTol {
				return nil, fmt.Errorf("verify: state %d has transition probability %g", i, e.P)
			}
			sum += e.P
			if k > 0 && e.To == edges[k-1].To {
				return nil, fmt.Errorf("verify: state %d has duplicate edges to %d", i, e.To)
			}
		}
		if math.Abs(sum-1) > probTol {
			return nil, fmt.Errorf("verify: state %d transition row sums to %.12f", i, sum)
		}
		for _, e := range edges {
			c.Succ = append(c.Succ, int32(e.To))
			c.Prob = append(c.Prob, e.P)
		}
		c.Start[i+1] = int32(len(c.Succ))
	}
	return c, nil
}

// Len returns the number of states.
func (c *Chain) Len() int { return len(c.Start) - 1 }

// step writes dst[i] = sum over edges (i->j) of P * src[j], walking states
// and edges in index order — the one accumulation order bit-determinism
// hangs on.
func (c *Chain) step(dst, src []float64) {
	for i := 0; i < c.Len(); i++ {
		acc := 0.0
		for k := c.Start[i]; k < c.Start[i+1]; k++ {
			acc += c.Prob[k] * src[c.Succ[k]]
		}
		dst[i] = acc
	}
}

// ReachWithin returns, per start state, the probability of visiting a
// target state within horizon steps (the bounded-until probability
// P[F<=H target]). Target states are absorbing for the computation: once
// reached, the property holds regardless of what happens after.
func (c *Chain) ReachWithin(target []bool, horizon int) ([]float64, error) {
	if len(target) != c.Len() {
		return nil, fmt.Errorf("verify: target set over %d states, chain has %d", len(target), c.Len())
	}
	if horizon < 0 {
		return nil, errors.New("verify: horizon must be non-negative")
	}
	v := make([]float64, c.Len())
	next := make([]float64, c.Len())
	for i, t := range target {
		if t {
			v[i] = 1
		}
	}
	for h := 0; h < horizon; h++ {
		c.step(next, v)
		for i, t := range target {
			if t {
				next[i] = 1
			}
		}
		v, next = next, v
	}
	return v, nil
}

// AccumulatedReward returns, per start state, the expected total reward
// collected over horizon steps, where reward[i] accrues each step spent in
// state i (including the start state, excluding the state entered on the
// final step): E[sum_{t=0}^{H-1} r(S_t)].
func (c *Chain) AccumulatedReward(reward []float64, horizon int) ([]float64, error) {
	if len(reward) != c.Len() {
		return nil, fmt.Errorf("verify: reward over %d states, chain has %d", len(reward), c.Len())
	}
	if horizon < 0 {
		return nil, errors.New("verify: horizon must be non-negative")
	}
	v := make([]float64, c.Len())
	next := make([]float64, c.Len())
	for h := 0; h < horizon; h++ {
		c.step(next, v)
		for i := range next {
			next[i] += reward[i]
		}
		v, next = next, v
	}
	return v, nil
}

// DiscountedReward solves the infinite-horizon discounted value
// V = r + gamma * P * V by value iteration from zero, stopping when the
// sup-norm step difference guarantees ||V_k - V*|| <= tol via the
// contraction bound ||V_k - V*|| <= gamma/(1-gamma) * ||V_k - V_{k-1}||.
// It returns the value vector and the per-iteration sup-norm differences
// (the contraction witness the property tests assert on).
func (c *Chain) DiscountedReward(reward []float64, gamma, tol float64) ([]float64, []float64, error) {
	if len(reward) != c.Len() {
		return nil, nil, fmt.Errorf("verify: reward over %d states, chain has %d", len(reward), c.Len())
	}
	if !(gamma > 0 && gamma < 1) {
		return nil, nil, fmt.Errorf("verify: discount %g outside (0,1)", gamma)
	}
	if !(tol > 0) {
		return nil, nil, errors.New("verify: tolerance must be positive")
	}
	v := make([]float64, c.Len())
	next := make([]float64, c.Len())
	var diffs []float64
	// The iteration count is bounded by the contraction rate; the cap is a
	// backstop against a caller asking for tolerances at float resolution.
	const maxIter = 1 << 20
	for iter := 0; iter < maxIter; iter++ {
		c.step(next, v)
		diff := 0.0
		for i := range next {
			next[i] = reward[i] + gamma*next[i]
			if d := math.Abs(next[i] - v[i]); d > diff {
				diff = d
			}
		}
		v, next = next, v
		diffs = append(diffs, diff)
		if diff*gamma/(1-gamma) <= tol {
			return v, diffs, nil
		}
	}
	return nil, diffs, errors.New("verify: discounted value iteration did not converge")
}
