package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// replayStep is one request of the HTTP pass, replayed in the same order.
type replayStep struct {
	id       string // span request id: "w" warm-up, "m" measured, "g" golden
	req      request
	campaign bool
	job      *jobOutcome      // the daemon's answer, for jobs
	camp     *campaignOutcome // the daemon's answer, for campaigns
}

func measured(req string) bool { return strings.HasPrefix(req, "m") }

// steps lists the requests of each daemon boot in the order the HTTP
// pass sent them: one list per golden-daemon boot, then the workload's
// daemon.
func (r *run) steps(p *httpPass) (golden [][]replayStep, main []replayStep) {
	for b, boot := range p.goldens {
		var steps []replayStep
		for i := range boot {
			c := &boot[i]
			steps = append(steps, replayStep{id: fmt.Sprintf("g%d.%d", b, i), req: c.req, campaign: true, camp: c})
		}
		golden = append(golden, steps)
	}
	for i := range p.warmJobs {
		j := &p.warmJobs[i]
		main = append(main, replayStep{id: fmt.Sprintf("w%d", i), req: j.req, job: j})
	}
	for i := range p.jobs {
		j := &p.jobs[i]
		main = append(main, replayStep{id: fmt.Sprintf("m%d", i), req: j.req, job: j})
	}
	return golden, main
}

// replayed is what one replay of a boot's steps measured.
type replayed struct {
	rp    *replayer
	wall  time.Duration // summed over the measured steps
	alloc uint64        // bytes allocated by the measured steps
	jobs  int           // jobs the measured steps ran
}

// replayAll replays steps in order on a fresh deployer over the warm KB,
// as a fresh daemon boot would serve them.
func (r *run) replayAll(ctx context.Context, warmKB string, steps []replayStep, tr *tracer) (replayed, error) {
	rp, err := newReplayer(warmKB, tr)
	if err != nil {
		return replayed{}, err
	}
	out := replayed{rp: rp}
	var ms runtime.MemStats
	for _, s := range steps {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		start := time.Now()
		if s.campaign {
			a, err := rp.replayCampaign(ctx, s.id, s.req.body)
			if err != nil {
				return out, fmt.Errorf("replay campaign %s: %w", s.id, err)
			}
			if err := checkCampaign(refOfCampaign(s.req.body, a), s.camp.result); err != nil {
				r.fail("replay of campaign %s differs from the daemon: %v", s.id, err)
			}
		} else {
			v, err := rp.replayJob(ctx, s.id, s.req.body)
			if err != nil {
				return out, fmt.Errorf("replay job %s: %w", s.id, err)
			}
			if err := sameBlocks(v, s.job.result); err != nil {
				r.fail("replay of job %s differs from the daemon: %v", s.id, err)
			}
			if measured(s.id) {
				out.jobs++
				rp.proxyEvaluated += v.proxy.Evaluated
				rp.proxyEscalated += v.proxy.Escalated
			}
		}
		took := time.Since(start)
		runtime.ReadMemStats(&ms)
		if measured(s.id) {
			out.wall += took
			out.alloc += ms.TotalAlloc - before
		}
	}
	return out, nil
}

// sameBlocks demands bit equality of every block result.
func sameBlocks(v valuation, got jobResultJSON) error {
	if len(v.results) != len(got.Blocks) {
		return fmt.Errorf("%d blocks, daemon answered %d", len(v.results), len(got.Blocks))
	}
	for id, res := range v.results {
		g, ok := got.Blocks[id]
		if !ok {
			return fmt.Errorf("block %s missing from the daemon's answer", id)
		}
		if g.BEL != res.BEL || g.SCR != res.SCR {
			return fmt.Errorf("block %s: bel/scr %.17g/%.17g, daemon %.17g/%.17g", id, res.BEL, res.SCR, g.BEL, g.SCR)
		}
	}
	return nil
}

// replay runs the untraced and the traced replay and the layer probes, and
// fills the per-layer metrics the spans and probes give.
func (r *run) replay(ctx context.Context, warmKB string, p *httpPass, m map[string]float64) error {
	golden, main := r.steps(p)
	plain, err := r.replayAll(ctx, warmKB, main, nil)
	if err != nil {
		return err
	}
	tr := newTracer()
	var goldenSetGen, goldenAggregate []float64
	for _, boot := range golden {
		g, err := r.replayAll(ctx, warmKB, boot, tr)
		if err != nil {
			return err
		}
		goldenSetGen = append(goldenSetGen, g.rp.setGen...)
		goldenAggregate = append(goldenAggregate, g.rp.aggregate...)
	}
	traced, err := r.replayAll(ctx, warmKB, main, tr)
	if err != nil {
		return err
	}
	rp := traced.rp
	// Campaigns run only on the golden daemon.
	rp.setGen, rp.aggregate = goldenSetGen, goldenAggregate
	sum := tr.summarize(measured)
	m["runtime.alloc_bytes_per_job"] = float64(plain.alloc) / float64(plain.jobs)
	// The traced requests' time is their root spans: the select probes run
	// after each root ends.
	m["trace.overhead_frac"] = (sum.RootMS*1e6 - float64(plain.wall)) / float64(plain.wall)

	msOf := func(name string) []float64 {
		d := tr.durations(name, measured)
		for i := range d {
			d[i] /= 1e6
		}
		return d
	}
	m["core.deploy_ms_p50"] = median(msOf("core.deploy"))
	m["provision.select_ms_p50"] = median(msOf("provision.select"))
	m["provision.retrain_ms_p50"] = median(msOf("provision.retrain"))
	m["cloud.deploy_us"] = median(msOf("cloud.deploy")) * 1e3
	m["policy.portfolio_gen_ms"] = median(msOf("policy.portfolio_gen"))
	m["eeb.split_ms"] = median(msOf("eeb.split"))
	m["provision.candidates_per_select"] = median(rp.candidates)
	m["provision.predict_us_p50"] = median(rp.predictNS) / 1e3
	m["provision.pred_abs_err_frac"] = mean(rp.predErr)
	m["stochastic.set_generated_per_campaign"] = median(rp.setGen)
	m["stress.aggregate_us"] = median(rp.aggregate) / 1e3

	m["trace.valuation_self_frac"] = 0
	for _, l := range []string{"grid", "alm", "stochastic", "fund", "policy", "eeb", "proxyval"} {
		m["trace.valuation_self_frac"] += sum.ByLayer[l]
	}
	selfOf := func(name string) float64 { return sum.ByName[name].SelfMS }
	m["trace.control_self_frac"] = (selfOf("provision.select") + selfOf("provision.retrain")) / sum.RootMS

	// The first measured request is the probe input of the kernel, grid
	// and proxy probes.
	var first body
	for _, s := range main {
		if measured(s.id) {
			first = s.req.body
			break
		}
	}
	if err := kernelProbe(first, m); err != nil {
		return fmt.Errorf("kernel probe: %w", err)
	}
	nested := first
	nested.Proxy = nil
	gridMS, err := gridProbe(nested, m)
	if err != nil {
		return fmt.Errorf("grid probe: %w", err)
	}
	if runs := msOf("grid.run"); len(runs) > 0 {
		m["grid.run_ms_p50"] = median(runs)
	} else {
		m["grid.run_ms_p50"] = gridMS // proxy jobs never reach the grid
	}
	if err := r.proxyMetrics(ctx, tr, rp, first, m); err != nil {
		return fmt.Errorf("proxy probe: %w", err)
	}
	if err := mlProbe(rp.d.KB(), m); err != nil {
		return fmt.Errorf("ml probe: %w", err)
	}
	return tr.write(filepath.Join(".bench_build", fmt.Sprintf("trace-%s-%d.json", r.w.name, r.seed)), sum)
}

// proxyMetrics reads the proxy tier's figures from the replayed proxy jobs,
// or — on workloads that send none — from one probe job, the proxy-serving
// workload's first slot.
func (r *run) proxyMetrics(ctx context.Context, tr *tracer, rp *replayer, first body, m map[string]float64) error {
	keep := measured
	var evaluated, escalated int
	if first.Proxy == nil {
		pw, err := workloadByName("proxy-serving")
		if err != nil {
			return err
		}
		b := pw.slotBody(0, 0, r.workers)
		_, blocks, err := probeBlocks(b)
		if err != nil {
			return err
		}
		_, st, err := rp.proxyValuation(ctx, "probe", -1, blocks, b.Seed)
		if err != nil {
			return err
		}
		evaluated, escalated = st.Evaluated, st.Escalated
		keep = func(req string) bool { return req == "probe" }
	} else {
		evaluated, escalated = rp.proxyEvaluated, rp.proxyEscalated
	}
	train := tr.durations("proxyval.train", keep)
	value := tr.durations("proxyval.value", keep)
	valueNS := 0.0
	for _, v := range value {
		valueNS += v
	}
	m["proxyval.train_ms_p50"] = median(train) / 1e6
	m["proxyval.value_us_per_path"] = valueNS / 1e3 / float64(evaluated)
	m["proxyval.escalation_frac"] = float64(escalated) / float64(evaluated)
	return nil
}
