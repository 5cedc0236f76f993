// Package elastic implements the capacity-decision side of the paper's
// "Elastic Cloud Resource Provisioning" claim: the scaling policies that
// observe the valuation service's load signals (queue depth, jobs in
// flight, predictor-estimated backlog, deadline slack, arrival rate and a
// forecast target) and decide when the worker pool should grow or shrink.
//
// Every policy is one pure function, Policy.Step(state, signals) ->
// (state, target, reason): it holds no goroutines, performs no I/O and
// never reads the clock — cooldowns and windows are measured against the
// supplied Signals.Now. The live control loop keeps a single state cell
// around it (Controller), the model checker (internal/verify) enumerates
// it, and the simulators (internal/rl) replay it, so what is verified and
// trained is the code that runs. The built-in policies are the reactive
// threshold controller (Reactive), its forecast overlay (Hybrid), and the
// learned Q-table (internal/rl.Table).
package elastic

import (
	"errors"
	"fmt"
	"time"
)

// Default policy parameters, chosen so a small pool reacts within a few
// control ticks to a campaign burst but does not thrash on single jobs.
const (
	// DefaultScaleUpPressure is the queued+running jobs per worker above
	// which the pool grows.
	DefaultScaleUpPressure = 1.5
	// DefaultScaleDownPressure is the load per worker below which the pool
	// is allowed to shrink. It must sit strictly below the scale-up
	// threshold: the gap is the hysteresis band in which the controller
	// holds steady.
	DefaultScaleDownPressure = 0.5
	// DefaultScaleUpCooldown separates consecutive grow decisions.
	DefaultScaleUpCooldown = 50 * time.Millisecond
	// DefaultScaleDownCooldown separates consecutive shrink decisions (and a
	// shrink from the last grow), so the pool never oscillates inside one
	// burst.
	DefaultScaleDownCooldown = 500 * time.Millisecond
	// DefaultShrinkStableFor is how long the load must stay below the
	// scale-down threshold before the first shrink fires.
	DefaultShrinkStableFor = 500 * time.Millisecond
	// DefaultMaxStep bounds how many workers one grow decision may add.
	DefaultMaxStep = 4
)

// Config parameterises the reactive controller and the hybrid policy built
// on it.
type Config struct {
	// MinWorkers is the pool floor; the controller never targets below it.
	// Zero defaults to 1.
	MinWorkers int
	// MaxWorkers is the pool ceiling — the elastic analogue of the
	// Constraints.MaxNodes bound Algorithm 1 searches under. Required.
	MaxWorkers int
	// ScaleUpPressure and ScaleDownPressure are the per-worker load
	// thresholds (queued+running jobs divided by workers) that trigger
	// growth and permit shrinking. ScaleDownPressure must be strictly below
	// ScaleUpPressure; the gap is the hysteresis band.
	ScaleUpPressure   float64
	ScaleDownPressure float64
	// ScaleUpCooldown and ScaleDownCooldown are the minimum times between
	// consecutive grow and shrink decisions.
	ScaleUpCooldown   time.Duration
	ScaleDownCooldown time.Duration
	// ShrinkStableFor is how long the load must continuously sit below
	// ScaleDownPressure before a shrink is taken — transient idle gaps
	// between bursts keep the pool warm.
	ShrinkStableFor time.Duration
	// MaxStep caps workers added by a single grow decision (shrinks always
	// step down one worker at a time). Zero defaults to DefaultMaxStep.
	MaxStep int
}

// withDefaults returns the config with zero fields replaced by defaults.
func (c Config) withDefaults() Config {
	if c.MinWorkers == 0 {
		c.MinWorkers = 1
	}
	if c.ScaleUpPressure == 0 {
		c.ScaleUpPressure = DefaultScaleUpPressure
	}
	if c.ScaleDownPressure == 0 {
		c.ScaleDownPressure = DefaultScaleDownPressure
	}
	if c.ScaleUpCooldown == 0 {
		c.ScaleUpCooldown = DefaultScaleUpCooldown
	}
	if c.ScaleDownCooldown == 0 {
		c.ScaleDownCooldown = DefaultScaleDownCooldown
	}
	if c.ShrinkStableFor == 0 {
		c.ShrinkStableFor = DefaultShrinkStableFor
	}
	if c.MaxStep == 0 {
		c.MaxStep = DefaultMaxStep
	}
	return c
}

// Validate reports whether the (defaulted) config is admissible.
func (c Config) Validate() error {
	c = c.withDefaults()
	if c.MinWorkers < 1 {
		return errors.New("elastic: MinWorkers must be at least 1")
	}
	if c.MaxWorkers < c.MinWorkers {
		return fmt.Errorf("elastic: MaxWorkers %d below MinWorkers %d", c.MaxWorkers, c.MinWorkers)
	}
	if c.ScaleUpPressure <= 0 || c.ScaleDownPressure < 0 {
		return errors.New("elastic: pressure thresholds must be positive")
	}
	if c.ScaleDownPressure >= c.ScaleUpPressure {
		return fmt.Errorf("elastic: no hysteresis band: scale-down threshold %.3g must be below scale-up threshold %.3g",
			c.ScaleDownPressure, c.ScaleUpPressure)
	}
	if c.ScaleUpCooldown < 0 || c.ScaleDownCooldown < 0 || c.ShrinkStableFor < 0 {
		return errors.New("elastic: cooldowns must be non-negative")
	}
	if c.MaxStep < 1 {
		return errors.New("elastic: MaxStep must be at least 1")
	}
	return nil
}

// Signals is one observation of the service a policy decides on.
type Signals struct {
	// Now is the observation time; cooldowns and the shrink-stability window
	// are measured against it. It must not decrease between steps.
	Now time.Time
	// Queued is the number of accepted jobs waiting for a worker.
	Queued int
	// InFlight is the number of jobs currently executing.
	InFlight int
	// Workers is the pool's current target size.
	Workers int
	// BacklogETASeconds is the predictor-estimated total runtime of the
	// queued jobs (the KB-driven signal); 0 when no estimates are available.
	BacklogETASeconds float64
	// SlackSeconds is the time remaining until the earliest deadline among
	// queued jobs; <= 0 means no queued job carries a finite deadline.
	SlackSeconds float64
	// RatePerTick is the arrival count of the last control interval — the
	// learned policy's demand signal. The clock-free models supply the
	// trace's deterministic rate profile instead.
	RatePerTick float64
	// Plan is the forecast worker target (0 = no opinion) the hybrid policy
	// overlays on the reactive decision. Live it comes from the fitted
	// forecast model; the clock-free models use the perfect forecast of the
	// true arrival rate.
	Plan int
}

// QueueSignals is the observation of a system holding jobs jobs on a pool
// of workers, split the way the live scheduler reports it: up to workers
// of them running, the rest queued. The clock-free models observe through
// it, so their policies see exactly the pressure the live loop computes.
func QueueSignals(now time.Time, jobs, workers int, ratePerTick float64) Signals {
	inFlight := jobs
	if inFlight > workers {
		inFlight = workers
	}
	return Signals{Now: now, Queued: jobs - inFlight, InFlight: inFlight, Workers: workers, RatePerTick: ratePerTick}
}

// pressure is the load per worker the thresholds are compared against.
func (s Signals) pressure() float64 {
	w := s.Workers
	if w < 1 {
		w = 1
	}
	return float64(s.Queued+s.InFlight) / float64(w)
}

// Decision is one capacity change, kept as the autoscaler's telemetry
// record: every decision carries the signals it was taken on.
type Decision struct {
	At     time.Time
	From   int // workers before
	Target int // workers decided
	// Reason is the trigger: "backlog" (load above the scale-up threshold),
	// "deadline" (predicted backlog completion busts the earliest queued
	// deadline), "idle" (load below the scale-down threshold for the
	// stability window), "floor"/"ceiling" (bound enforcement), "forecast"
	// and "forecast-idle" (the hybrid overlay), "learned-*" (the Q-table).
	Reason  string
	Signals Signals
}

// State is a policy's memory between control ticks. It is a small
// comparable value, so the model checker can enumerate and deduplicate it;
// each policy uses its own fields and leaves the others zero.
type State struct {
	// At is the observation time the state was produced at. The reactive
	// ages below hold as of At and advance by Now-At on the next step.
	At time.Time
	// SinceUp and SinceDown are the time since the last grow and the last
	// shrink, saturating at the longest cooldown they are compared with
	// (the learned table counts them in whole control ticks). While Low is
	// set the load has sat below the scale-down threshold for LowFor,
	// saturating at the stability window.
	SinceUp, SinceDown, LowFor time.Duration
	Low                        bool
	// Shed counts the consecutive ticks the hybrid's forecast target sat
	// below the pool, saturating at the release gate.
	Shed int32
	// PrevRate is the learned policy's previous arrival-rate bucket plus
	// one (0 = none yet).
	PrevRate int32
}

// Policy is a scaling policy as one pure function of (state, signals).
type Policy interface {
	// Name identifies the policy family in reports.
	Name() string
	// Bounds returns the pool floor and ceiling the policy targets within.
	Bounds() (minWorkers, maxWorkers int)
	// Init returns the state of a freshly deployed policy.
	Init() State
	// Step evaluates one control tick: it returns the successor state, the
	// worker target, and the decision's reason — empty when the policy
	// holds, in which case the target is Signals.Workers.
	Step(st State, sig Signals) (State, int, string)
	// Advance returns the state after d elapses with no observation. Step
	// applies it for Now-At itself; the model checker applies it to a
	// step's result so states that behave identically at the next tick
	// share one key.
	Advance(st State, d time.Duration) State
}

// Controller runs a Policy live: it keeps the single state cell between
// control ticks and turns each step into a Decision record. It is not safe
// for concurrent use; the owning service serialises Decide calls.
type Controller struct {
	pol Policy
	st  State
}

// NewController validates the config (after applying defaults) and returns
// a controller running the reactive policy.
func NewController(cfg Config) (*Controller, error) {
	r, err := NewReactive(cfg)
	if err != nil {
		return nil, err
	}
	return ControllerFor(r), nil
}

// ControllerFor returns a controller running p from its initial state.
func ControllerFor(p Policy) *Controller { return &Controller{pol: p, st: p.Init()} }

// Name reports the policy's name.
func (c *Controller) Name() string { return c.pol.Name() }

// Config returns the defaulted threshold configuration in force, or the
// zero Config for a policy without one (the learned table).
func (c *Controller) Config() Config {
	if r, ok := c.pol.(interface{ Config() Config }); ok {
		return r.Config()
	}
	return Config{}
}

// Decide evaluates one observation and returns the capacity change to apply,
// if any. The second return is false when the pool should stay as it is.
func (c *Controller) Decide(sig Signals) (Decision, bool) {
	var target int
	var reason string
	c.st, target, reason = c.pol.Step(c.st, sig)
	if reason == "" {
		return Decision{}, false
	}
	return Decision{At: sig.Now, From: sig.Workers, Target: target, Reason: reason, Signals: sig}, true
}
