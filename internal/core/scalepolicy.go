package core

import (
	"errors"
	"fmt"
	"maps"

	"disarcloud/internal/elastic"
	"disarcloud/internal/rl"
)

// ScalingPolicy is the pluggable decision layer of the elastic control
// loop. Decide is called once per control tick with the sampled signals and
// returns the capacity change to apply, if any; it runs on the control
// loop, so implementations must not block, and they are never called
// concurrently. The built-in policies — reactive, hybrid and learned — are
// elastic.Policy step functions run by an elastic.Controller, the same
// functions internal/verify model-checks and internal/rl trains against;
// WithScalingPolicy substitutes anything else.
type ScalingPolicy interface {
	// Name identifies the policy in status reports.
	Name() string
	// Decide evaluates one observation; the second return is false when the
	// pool should stay as it is.
	Decide(sig elastic.Signals) (elastic.Decision, bool)
}

// ParameterizedPolicy is the optional interface a ScalingPolicy implements
// to surface its hyperparameters through AutoscalerStatus (and from there
// GET /v1/autoscaler): a flat name->value map, stable enough to diff across
// deploys. All three built-in policies implement it.
type ParameterizedPolicy interface {
	PolicyParams() map[string]float64
}

// builtinPolicy is a built-in elastic.Policy on the control loop: the
// embedded controller keeps its single state cell between ticks.
type builtinPolicy struct {
	*elastic.Controller
	params map[string]float64
}

// PolicyParams implements ParameterizedPolicy.
func (p builtinPolicy) PolicyParams() map[string]float64 { return maps.Clone(p.params) }

// elasticParams flattens a controller configuration: the reactive policy's
// parameters, and the hybrid's before its headroom.
func elasticParams(cfg elastic.Config) map[string]float64 {
	return map[string]float64{
		"min_workers":            float64(cfg.MinWorkers),
		"max_workers":            float64(cfg.MaxWorkers),
		"scale_up_pressure":      cfg.ScaleUpPressure,
		"scale_down_pressure":    cfg.ScaleDownPressure,
		"scale_up_cooldown_ms":   float64(cfg.ScaleUpCooldown.Milliseconds()),
		"scale_down_cooldown_ms": float64(cfg.ScaleDownCooldown.Milliseconds()),
		"max_step":               float64(cfg.MaxStep),
	}
}

// WithLearnedPolicy installs a trained Q-table (internal/rl) as the control
// loop's decision layer — the third built-in policy next to reactive and
// hybrid. It requires WithElastic (the loop and the pool gauges), and the
// table's own pool bounds must lie within the elastic configuration's, so
// the policy can never target capacity the controller configuration forbids.
// It conflicts with WithForecast and WithScalingPolicy — one decision layer
// at a time. The policy observes the jobs in system and the arrival count
// of the last control interval (the live stand-in for the trace profile it
// saw in training and verification).
func WithLearnedPolicy(t *rl.Table) ServiceOption {
	return func(c *serviceConfig) { c.qtable = t }
}

// buildLearnedPolicy validates the WithLearnedPolicy wiring at NewService
// time.
func buildLearnedPolicy(cfg *serviceConfig, scaler *autoscaler, fc *forecastState) (ScalingPolicy, error) {
	if scaler == nil {
		return nil, errors.New("core: WithLearnedPolicy requires WithElastic (the policy needs the control loop)")
	}
	if fc != nil {
		return nil, errors.New("core: WithLearnedPolicy conflicts with WithForecast (one decision layer at a time)")
	}
	if cfg.policy != nil {
		return nil, errors.New("core: WithLearnedPolicy conflicts with WithScalingPolicy (one decision layer at a time)")
	}
	ec := scaler.cfg
	t := cfg.qtable
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if t.Spec.MinWorkers < ec.MinWorkers || t.Spec.MaxWorkers > ec.MaxWorkers {
		return nil, fmt.Errorf("core: Q-table pool bounds [%d,%d] outside the elastic bounds [%d,%d]",
			t.Spec.MinWorkers, t.Spec.MaxWorkers, ec.MinWorkers, ec.MaxWorkers)
	}
	return builtinPolicy{elastic.ControllerFor(t), t.Params()}, nil
}
