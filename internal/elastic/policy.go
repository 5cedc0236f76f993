package elastic

import (
	"math"
	"time"
)

// Reactive is the threshold controller: grow on queue or deadline
// pressure, shrink one worker at a time after the load has sat below the
// hysteresis band for the stability window, with cooldowns between
// decisions and immediate floor/ceiling correction.
type Reactive struct {
	cfg Config
	// capUp is where SinceUp saturates: the shrink path compares it with
	// the shrink cooldown as well as the grow cooldown.
	capUp time.Duration
}

// NewReactive validates the config (after applying defaults) and returns
// the reactive policy.
func NewReactive(cfg Config) (*Reactive, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := cfg.withDefaults()
	return &Reactive{cfg: c, capUp: max(c.ScaleUpCooldown, c.ScaleDownCooldown)}, nil
}

// Name implements Policy.
func (p *Reactive) Name() string { return "reactive" }

// Config returns the defaulted configuration in force.
func (p *Reactive) Config() Config { return p.cfg }

// Bounds implements Policy.
func (p *Reactive) Bounds() (int, int) { return p.cfg.MinWorkers, p.cfg.MaxWorkers }

// Init implements Policy: both cooldowns read as long expired and no
// low-load window is open.
func (p *Reactive) Init() State {
	return State{SinceUp: p.capUp, SinceDown: p.cfg.ScaleDownCooldown}
}

// Advance implements Policy: every age grows by d, saturating.
func (p *Reactive) Advance(st State, d time.Duration) State {
	st.SinceUp = age(st.SinceUp, d, p.capUp)
	st.SinceDown = age(st.SinceDown, d, p.cfg.ScaleDownCooldown)
	if st.Low {
		st.LowFor = age(st.LowFor, d, p.cfg.ShrinkStableFor)
	}
	return st
}

// age adds d to v, saturating at limit (v never exceeds it, so the
// subtraction cannot overflow even for the first step's huge d).
func age(v, d, limit time.Duration) time.Duration {
	if d >= limit-v {
		return limit
	}
	return v + d
}

// Step implements Policy.
func (p *Reactive) Step(st State, sig Signals) (State, int, string) {
	st = p.Advance(st, sig.Now.Sub(st.At))
	st.At = sig.Now
	c := p.cfg
	// Bound enforcement first: a pool outside [Min, Max] (e.g. after a
	// config change) is corrected immediately, ignoring cooldowns.
	if sig.Workers < c.MinWorkers {
		return st, c.MinWorkers, "floor"
	}
	if sig.Workers > c.MaxWorkers {
		return st, c.MaxWorkers, "ceiling"
	}

	pressure := sig.pressure()

	// Track the shrink-stability window regardless of what is decided: the
	// moment the load rises above the scale-down threshold the window resets.
	if pressure < c.ScaleDownPressure {
		if !st.Low {
			st.Low, st.LowFor = true, 0
		}
	} else {
		st.Low, st.LowFor = false, 0
	}

	// Grow on queue pressure, or on deadline pressure: when the estimated
	// backlog, spread over the current pool, cannot complete inside the
	// earliest queued job's remaining slack, waiting for the pressure
	// threshold would guarantee deadline misses.
	deadlinePressed := sig.SlackSeconds > 0 && sig.Workers > 0 &&
		sig.BacklogETASeconds/float64(sig.Workers) > sig.SlackSeconds
	if sig.Workers < c.MaxWorkers && st.SinceUp >= c.ScaleUpCooldown {
		switch {
		case pressure > c.ScaleUpPressure:
			// Target enough workers to bring the load back under the
			// threshold, bounded by MaxStep and the ceiling.
			want := int(math.Ceil(float64(sig.Queued+sig.InFlight) / c.ScaleUpPressure))
			want = min(max(want, sig.Workers+1), sig.Workers+c.MaxStep, c.MaxWorkers)
			st.SinceUp = 0
			return st, want, "backlog"
		case deadlinePressed:
			st.SinceUp = 0
			return st, min(sig.Workers+1, c.MaxWorkers), "deadline"
		}
	}

	// Shrink one worker at a time, only after the load has been below the
	// scale-down threshold for the full stability window and both cooldowns
	// have elapsed (a shrink immediately after a grow is always a thrash).
	if sig.Workers > c.MinWorkers && st.Low && st.LowFor >= c.ShrinkStableFor &&
		st.SinceDown >= c.ScaleDownCooldown && st.SinceUp >= c.ScaleDownCooldown {
		st.SinceDown = 0
		// Restart the stability window so the next shrink waits again.
		st.LowFor = 0
		return st, sig.Workers - 1, "idle"
	}
	return st, sig.Workers, ""
}

// Hybrid overlays the feed-forward forecast target (Signals.Plan) on the
// reactive controller. It applies the MAXIMUM of the reactive decision (or
// the current pool when the controller is silent) and the plan —
// feed-forward provisioning can only ever add capacity, and a plan above a
// reactive shrink overrides the shrink ("forecast" decisions; the forecast
// says the demand is coming back, so releasing now would thrash).
// Downward, when the reactive controller is silent and the plan has sat
// persistently below the pool with the queue no deeper than the pool
// itself, one worker per tick is released ("forecast-idle" decisions) —
// the forecast knows the demand is gone before the reactive pressure
// gauge, which hovers at its threshold on a right-sized pool, manages to
// detect idleness. It reads the thresholds of the reactive policy it
// embeds.
type Hybrid struct {
	*Reactive
}

// Name implements Policy.
func (p *Hybrid) Name() string { return "hybrid" }

// shedStableTicks is how many consecutive ticks the plan must sit below
// the pool before the release path may shed a worker: long enough that
// one noisy interval cannot flap the pool, short enough that surplus
// capacity is released well before the reactive idle path — which must
// wait for the pressure gauge to fall and stay below its threshold —
// would notice.
const shedStableTicks = 2

// Step implements Policy.
func (p *Hybrid) Step(st State, sig Signals) (State, int, string) {
	c := p.cfg
	w := sig.Workers
	plan := min(sig.Plan, c.MaxWorkers)
	// The release path keeps a one-worker cushion above the forecast:
	// shedding all the way down to the plan would strip the slack that
	// absorbs the first interval of the next burst.
	shed := int32(0)
	if plan > 0 && plan < w-1 {
		shed = min(st.Shed+1, shedStableTicks)
	}
	st, target, reason := p.Reactive.Step(st, sig)
	// Forecast grows obey the controller's MaxStep per tick — the planner
	// replaces the grow *cooldown* (its persistence and horizon smoothing
	// already damp decision churn, and capacity ordered ahead of demand is
	// the subsystem's point), but the per-decision step bound is a
	// provisioning rate limit, not damping, and bypassing it would let one
	// plan slam a 1-worker pool to the ceiling.
	plan = min(plan, w+c.MaxStep)
	switch {
	case plan > target:
		target, reason = plan, "forecast"
	case shed >= shedStableTicks && reason == "" && w > c.MinWorkers && sig.Queued <= w:
		target, reason = w-1, "forecast-idle"
	}
	if reason != "" && reason != "forecast-idle" {
		// Any other decision — reactive grow/shrink or a forecast grow —
		// restarts the release path's persistence window, so a shed can
		// never land on the heels of a grow.
		shed = 0
	}
	st.Shed = shed
	return st, target, reason
}
