package rl

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"disarcloud/internal/elastic"
	"disarcloud/internal/ml"
)

// TableVersion is the serialized artifact format this package writes and
// accepts. Bump it on any change to the state encoding, the action
// semantics or the JSON layout — a learned policy is its decision function,
// and silently reinterpreting an old table would ship a different policy
// than the one that was verified.
const TableVersion = 1

// maxTableBytes bounds a serialized artifact: the shipped table is a few
// tens of kilobytes, so anything near the cap is not a Q-table.
const maxTableBytes = 8 << 20

// Table is a trained policy: the spec that fixes its decision function and
// the learned action values, Q[state][action]. The greedy policy it induces
// is an elastic.Policy — Step is a function of (state, signals) only —
// which is what lets training, live serving and the verifier's exhaustive
// enumeration all run the identical decision logic.
type Table struct {
	Version int         `json:"version"`
	Spec    Spec        `json:"spec"`
	Q       [][]float64 `json:"q"`
}

// NewTable allocates a zero-valued table for the spec.
func NewTable(spec Spec) (*Table, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	q := make([][]float64, spec.NumStates())
	for i := range q {
		q[i] = make([]float64, spec.NumActions())
	}
	return &Table{Version: TableVersion, Spec: spec, Q: q}, nil
}

// Validate reports whether the table is well-formed: a valid spec, matching
// Q dimensions, finite values.
func (t *Table) Validate() error {
	if t == nil {
		return errors.New("rl: nil table")
	}
	if t.Version != TableVersion {
		return fmt.Errorf("rl: table version %d, this build reads version %d", t.Version, TableVersion)
	}
	if err := t.Spec.Validate(); err != nil {
		return err
	}
	if len(t.Q) != t.Spec.NumStates() {
		return fmt.Errorf("rl: table has %d states, spec needs %d", len(t.Q), t.Spec.NumStates())
	}
	for i, row := range t.Q {
		if len(row) != t.Spec.NumActions() {
			return fmt.Errorf("rl: state %d has %d actions, spec needs %d", i, len(row), t.Spec.NumActions())
		}
		for _, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("rl: state %d holds a non-finite action value", i)
			}
		}
	}
	return nil
}

// ticks is n control ticks as a duration. The learned policy keeps its
// cooldown ages in the shared SinceUp/SinceDown fields, counted in whole
// ticks: one Step is one tick, whatever the clock says.
func (t *Table) ticks(n int) time.Duration {
	return time.Duration(n) * time.Duration(t.Spec.TickMS) * time.Millisecond
}

// capUp is where SinceUp saturates: the grow path compares it against the
// grow cooldown, the shrink path against the shrink cooldown, so it must
// count at least to the larger of the two.
func (t *Table) capUp() time.Duration {
	return t.ticks(max(t.Spec.GrowCooldownTicks, t.Spec.ShrinkCooldownTicks))
}

// Name implements elastic.Policy.
func (t *Table) Name() string { return "learned" }

// Bounds implements elastic.Policy.
func (t *Table) Bounds() (int, int) { return t.Spec.MinWorkers, t.Spec.MaxWorkers }

// Init implements elastic.Policy: both cooldowns read as long expired (as
// a fresh reactive controller's do) and no previous rate observation.
func (t *Table) Init() elastic.State {
	return elastic.State{SinceUp: t.capUp(), SinceDown: t.ticks(t.Spec.ShrinkCooldownTicks)}
}

// Advance implements elastic.Policy. The learned policy counts control
// ticks, not time, and Step already advances its counters by one tick.
func (t *Table) Advance(st elastic.State, _ time.Duration) elastic.State { return st }

// rateBucket discretizes an arrival rate.
func (t *Table) rateBucket(rate float64) int32 {
	if math.IsNaN(rate) || rate < 0 {
		rate = 0
	}
	return int32(bucket(rate, t.Spec.RateCuts))
}

// StateIndex maps (state, observation) to the Q-table row: queue-pressure
// bucket x rate bucket x forecast-slope bucket x pool-size bucket, where
// the queue is the jobs in system (queued plus running). The absolute rate
// bucket is what lets the policy learn a per-load staffing level (the
// hybrid planner's edge) instead of only reacting to pressure. The
// cooldown counters deliberately stay out of the index — they gate which
// actions can act, not which state the agent is in, and keeping them out
// keeps the table small enough for tabular learning to converge in
// seconds.
func (t *Table) StateIndex(st elastic.State, sig elastic.Signals) int {
	w := sig.Workers
	div := max(w, 1)
	q := max(sig.Queued+sig.InFlight, 0)
	qb := bucket(float64(q)/float64(div), t.Spec.PressureCuts)

	cur := t.rateBucket(sig.RatePerTick)
	sb := 1 // flat, also the first-ever observation
	if st.PrevRate > 0 {
		switch prev := st.PrevRate - 1; {
		case cur < prev:
			sb = 0
		case cur > prev:
			sb = 2
		}
	}

	span := t.Spec.MaxWorkers - t.Spec.MinWorkers + 1
	wb := min(max((w-t.Spec.MinWorkers)*t.Spec.PoolBuckets/span, 0), t.Spec.PoolBuckets-1)

	rb := int(cur)
	return ((qb*(len(t.Spec.RateCuts)+1)+rb)*3+sb)*t.Spec.PoolBuckets + wb
}

// Apply executes one chosen action under the controller's execution
// semantics and advances the internal counters. It is the shared tail of
// the greedy Step and the trainer's exploratory step: bounds enforcement
// is immediate (and, like the reactive controller's, stamps no cooldowns);
// a positive step grows by up to that step, gated by the grow cooldown; a
// negative step releases exactly one worker, gated by the shrink cooldown
// on both counters; everything else holds. The reason is empty on a hold.
func (t *Table) Apply(st elastic.State, sig elastic.Signals, action int) (elastic.State, int, string) {
	s := t.Spec
	w := sig.Workers
	target, reason := w, ""
	up, down := st.SinceUp, st.SinceDown
	growCool, shrinkCool := t.ticks(s.GrowCooldownTicks), t.ticks(s.ShrinkCooldownTicks)
	switch {
	case w < s.MinWorkers:
		target, reason = s.MinWorkers, "learned-floor"
	case w > s.MaxWorkers:
		target, reason = s.MaxWorkers, "learned-ceiling"
	default:
		step := s.Steps[action]
		if step > 0 && w < s.MaxWorkers && up >= growCool {
			target, reason = min(w+step, s.MaxWorkers), "learned-grow"
			up = 0
		} else if step < 0 && w > s.MinWorkers &&
			down >= shrinkCool && up >= shrinkCool {
			target, reason = w-1, "learned-shrink"
			down = 0
		}
	}
	next := elastic.State{
		SinceUp:   min(up+t.ticks(1), t.capUp()),
		SinceDown: min(down+t.ticks(1), shrinkCool),
		PrevRate:  t.rateBucket(sig.RatePerTick) + 1,
	}
	return next, target, reason
}

// Step implements elastic.Policy as the greedy policy: pick the learned
// best action for the discretized state (deterministic lowest-index
// tie-break) and apply it. One call is one control tick; the function is
// pure in (st, sig).
func (t *Table) Step(st elastic.State, sig elastic.Signals) (elastic.State, int, string) {
	return t.Apply(st, sig, ml.Argmax(t.Q[t.StateIndex(st, sig)]))
}

// Params reports the policy's hyperparameters for status surfaces
// (AutoscalerStatus, GET /v1/autoscaler).
func (t *Table) Params() map[string]float64 {
	s := t.Spec
	gamma := s.Gamma
	if s.Bandit {
		gamma = 0
	}
	return map[string]float64{
		"version":      float64(t.Version),
		"states":       float64(s.NumStates()),
		"actions":      float64(s.NumActions()),
		"min_workers":  float64(s.MinWorkers),
		"max_workers":  float64(s.MaxWorkers),
		"alpha":        s.Alpha,
		"gamma":        gamma,
		"epsilon":      s.Epsilon,
		"episodes":     float64(s.Episodes),
		"sla_weight":   s.SLAWeight,
		"cost_weight":  s.CostWeight,
		"churn_weight": s.ChurnWeight,
	}
}

// Encode serializes the table. encoding/json writes struct fields and
// slices in declaration order with a deterministic float encoding, so two
// identical trainings produce byte-identical artifacts — the determinism
// contract the freshness test and the experiments lean on.
func (t *Table) Encode() ([]byte, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	data, err := json.MarshalIndent(t, "", " ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// DecodeTable reads a serialized table, strictly: unknown fields, trailing
// data, dimension mismatches and non-finite values are all errors, because
// a Q-table artifact is a policy about to be given a worker pool.
func DecodeTable(data []byte) (*Table, error) {
	if len(data) > maxTableBytes {
		return nil, fmt.Errorf("rl: table exceeds %d bytes", maxTableBytes)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var t Table
	if err := dec.Decode(&t); err != nil {
		return nil, fmt.Errorf("rl: decode table: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, errors.New("rl: decode table: trailing data after the JSON object")
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return &t, nil
}

// LoadTableFile reads a table artifact from disk.
func LoadTableFile(path string) (*Table, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return DecodeTable(data)
}

// SaveFile writes the serialized table to disk.
func (t *Table) SaveFile(path string) error {
	data, err := t.Encode()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
