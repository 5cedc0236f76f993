package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"
)

// httpPass is what the closed-loop client observed.
type httpPass struct {
	// goldens are the golden campaigns, one slice per golden-daemon boot.
	goldens  [][]campaignOutcome
	warmJobs []jobOutcome
	jobs     []jobOutcome // measured jobs
	kbEnd    int
	rssMB    float64
}

// mainPass drives the workload's requests through one closed-loop client
// on d and, spread evenly between the measured requests, the golden
// campaigns on a second daemon, booted afresh every goldenPerBoot
// campaigns. Only one request is in flight at a time, so the idle daemon
// takes no CPU from the busy one, and the job and the campaign figures
// both sample the host over the whole run.
func (r *run) mainPass(ctx context.Context, d *daemon, p *httpPass) (err error) {
	cl := newClient(d.base)
	start, err := cl.health()
	if err != nil {
		return err
	}
	var warm, measured []request
	for _, q := range r.reqs {
		if q.warmup {
			warm = append(warm, q)
		} else {
			measured = append(measured, q)
		}
	}
	completed := 0
	for _, q := range warm {
		j := cl.runJob(q)
		p.warmJobs = append(p.warmJobs, j)
		completed += r.checkJob(j)
	}
	g := &goldenDaemon{r: r, ctx: ctx}
	defer func() {
		if stopErr := g.stop(); err == nil {
			err = stopErr
		}
	}()
	total := goldenBoots * goldenPerBoot
	for i, q := range measured {
		j := cl.runJob(q)
		p.jobs = append(p.jobs, j)
		completed += r.checkJob(j)
		for g.ran < (i+1)*total/len(measured) {
			if err := g.campaign(p); err != nil {
				return err
			}
		}
	}
	if p.kbEnd, err = r.checkKB(cl, start.KBSamples, completed); err != nil {
		return err
	}
	p.rssMB, err = d.peakRSSMB()
	return err
}

// goldenDaemon serves the golden campaigns of a run, goldenPerBoot per
// fresh boot.
type goldenDaemon struct {
	r         *run
	ctx       context.Context
	d         *daemon
	cl        *client
	kbStart   int
	completed int
	boot      []campaignOutcome
	ran       int
}

// campaign runs the next golden campaign, booting the daemon first if
// needed and closing the boot after its last campaign.
func (g *goldenDaemon) campaign(p *httpPass) error {
	if g.d == nil {
		d, err := g.r.boot(g.ctx)
		if err != nil {
			return err
		}
		g.d, g.cl = d, newClient(d.base)
		h, err := g.cl.health()
		if err != nil {
			return err
		}
		g.kbStart, g.completed, g.boot = h.KBSamples, 0, nil
	}
	c := g.cl.runCampaign(request{slot: -1, body: goldenBody(g.r.workers)})
	g.completed += g.r.checkCampaign(c)
	g.boot = append(g.boot, c)
	g.ran++
	if len(g.boot) < goldenPerBoot {
		return nil
	}
	p.goldens = append(p.goldens, g.boot)
	if _, err := g.r.checkKB(g.cl, g.kbStart, g.completed); err != nil {
		return err
	}
	return g.stop()
}

// stop stops the golden daemon if one is running.
func (g *goldenDaemon) stop() error {
	if g.d == nil {
		return nil
	}
	d := g.d
	g.d = nil
	if err := d.stop(); err != nil {
		return fmt.Errorf("stop golden disard: %w", err)
	}
	return nil
}

// allGoldens returns the golden campaigns of every golden boot.
func (p *httpPass) allGoldens() []campaignOutcome {
	var out []campaignOutcome
	for _, g := range p.goldens {
		out = append(out, g...)
	}
	return out
}

// checkKB checks that the daemon's knowledge base grew by exactly one
// sample per completed job, and returns its size.
func (r *run) checkKB(cl *client, start, completed int) (int, error) {
	h, err := cl.health()
	if err != nil {
		return 0, err
	}
	if want := start + completed; h.KBSamples != want {
		r.fail("healthz kb_samples %d, want %d (start %d + %d completed jobs)", h.KBSamples, want, start, completed)
	}
	return h.KBSamples, nil
}

// checkJob checks one job answer against its reference and returns how
// many jobs the daemon completed (0 or 1).
func (r *run) checkJob(j jobOutcome) int {
	done := 0
	if j.completed {
		done = 1
	}
	if j.err != nil {
		r.fail("job slot %d: %v", j.req.slot, j.err)
		return done
	}
	ref, err := r.refs.lookup(r.w.name, j.req)
	if err == nil {
		err = checkJob(ref, j.result.BEL, j.result.SCR)
	}
	if err != nil {
		r.fail("job slot %d variant %d: %v", j.req.slot, j.req.variant, err)
	}
	return done
}

// checkCampaign checks one golden campaign answer bit for bit against
// testdata/golden_scr.json and returns how many of its jobs the daemon
// completed.
func (r *run) checkCampaign(c campaignOutcome) int {
	done := 0
	for _, j := range c.status.Jobs {
		if j.Status == "done" {
			done++
		}
	}
	err := c.err
	if err == nil {
		err = checkCampaign(r.golden, c.result)
	}
	if err != nil {
		r.fail("golden campaign: %v", err)
	}
	return done
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// endToEndMetrics computes the user-visible figures of the HTTP pass. The
// client sends one request at a time, so the throughput of jobs (and of
// campaigns) is their count over the time they were in flight; the
// interleaved requests of the other kind are left out.
func (r *run) endToEndMetrics(p *httpPass, m map[string]float64) {
	var lat, cost []float64
	var paths float64
	var busy time.Duration
	for _, j := range p.jobs {
		lat = append(lat, ms(j.latency))
		cost = append(cost, j.result.Deploy.ProRataUSD)
		paths += float64(j.req.body.Outer * j.req.body.Inner)
		busy += j.latency
	}
	var camp []float64
	var campBusy time.Duration
	for _, c := range p.allGoldens() {
		camp = append(camp, ms(c.latency))
		campBusy += c.latency
	}
	m["job_latency_p50_ms"] = quantile(lat, 0.5)
	m["job_latency_p90_ms"] = quantile(lat, 0.9)
	m["jobs_per_s"] = float64(len(p.jobs)) / busy.Seconds()
	m["inner_paths_per_s"] = paths / busy.Seconds()
	m["campaign_latency_p50_ms"] = quantile(camp, 0.5)
	m["campaigns_per_min"] = float64(len(camp)) / campBusy.Minutes()
	m["sim_cost_usd_per_job"] = mean(cost)
	m["rss_peak_mb"] = p.rssMB
}

// httpLayerMetrics computes the per-layer figures the daemon's own
// timestamps give: submit cost, result overhead, queue wait and run time
// of the measured jobs, and the spread of module finish times within a
// golden campaign.
func (r *run) httpLayerMetrics(p *httpPass, m map[string]float64) error {
	var submit, overhead, wait, runT, skew []float64
	for _, j := range p.jobs {
		submit = append(submit, ms(j.submit))
		overhead = append(overhead, ms(j.latency)-ms(j.status.FinishedAt.Sub(j.status.SubmittedAt)))
		wait = append(wait, ms(j.status.StartedAt.Sub(j.status.SubmittedAt)))
		runT = append(runT, ms(j.status.FinishedAt.Sub(j.status.StartedAt)))
	}
	for _, c := range p.allGoldens() {
		if len(c.status.Jobs) < 2 {
			return fmt.Errorf("campaign with %d jobs", len(c.status.Jobs))
		}
		// Job 0 is the base job, not a module.
		first, last := c.status.Jobs[1].FinishedAt, c.status.Jobs[1].FinishedAt
		for _, j := range c.status.Jobs[2:] {
			if j.FinishedAt.Before(first) {
				first = j.FinishedAt
			}
			if j.FinishedAt.After(last) {
				last = j.FinishedAt
			}
		}
		skew = append(skew, ms(last.Sub(first)))
	}
	m["disard.submit_ms_p50"] = quantile(submit, 0.5)
	m["disard.result_overhead_ms_p50"] = quantile(overhead, 0.5)
	m["core.queue_wait_ms_p50"] = quantile(wait, 0.5)
	m["core.queue_wait_ms_p90"] = quantile(wait, 0.9)
	m["core.run_ms_p50"] = quantile(runT, 0.5)
	m["core.campaign_skew_ms"] = quantile(skew, 0.5)
	m["kb.samples_end"] = float64(p.kbEnd)
	return nil
}

// quantile is the linearly interpolated q-quantile; NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
