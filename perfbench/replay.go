package main

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"time"

	"disarcloud"
	"disarcloud/internal/alm"
	"disarcloud/internal/cloud"
	"disarcloud/internal/core"
	"disarcloud/internal/eeb"
	"disarcloud/internal/finmath"
	"disarcloud/internal/fund"
	"disarcloud/internal/grid"
	"disarcloud/internal/kb"
	"disarcloud/internal/policy"
	"disarcloud/internal/provision"
	"disarcloud/internal/proxyval"
	"disarcloud/internal/stochastic"
	"disarcloud/internal/stress"
)

// The replay re-executes generated requests in this process through the
// layers' exported functions, in the order the daemon's submit path calls
// them (cmd/disard buildSpec, then core's RunSimulation: deploy, split,
// valuate). The constants below restate the values core and cmd/disard
// keep private; a drift shows up as a replay answer that no longer equals
// the daemon's, which fails the run.
const (
	maxContractsPerBlock = 25                 // core.maxContractsPerBlock
	cloudNoiseSalt       = 0x9d15a7c10bd5eed5 // core.deployBudgeted's per-job noise split
)

// jobInputs is what cmd/disard's buildSpec derives from a body.
type jobInputs struct {
	portfolio *policy.Portfolio
	market    stochastic.Config
	fund      fund.Config
}

func buildInputs(b body) (jobInputs, error) {
	specs := disarcloud.ItalianCompanySpecs()
	if b.Portfolio < 0 || b.Portfolio >= len(specs) {
		return jobInputs{}, fmt.Errorf("portfolio index %d out of range", b.Portfolio)
	}
	gen := specs[b.Portfolio]
	gen.NumContracts = b.Contracts
	p, err := disarcloud.GeneratePortfolio(b.Seed+1, gen)
	if err != nil {
		return jobInputs{}, err
	}
	market := disarcloud.DefaultMarket(p.MaxTerm())
	return jobInputs{portfolio: p, market: market, fund: disarcloud.TypicalItalianFund(b.FundAssets, market)}, nil
}

// valuation is the answer of one replayed job.
type valuation struct {
	results   map[string]*alm.Result
	bel, scr  float64
	proxy     proxyval.Stats
	predicted float64 // deploy prediction, seconds
	actual    float64 // simulated execution, seconds
}

// sumBlocks adds block results in block-ID order.
func sumBlocks(results map[string]*alm.Result) (bel, scr float64) {
	ids := make([]string, 0, len(results))
	for id := range results {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		bel += results[id].BEL
		scr += results[id].SCR
	}
	return bel, scr
}

// replayer owns the in-process deployer the replay deploys through. tr may
// be nil (untraced).
type replayer struct {
	d       *core.Deployer
	buffers *stochastic.BatchPool
	tr      *tracer
	// valueOnly skips the deploy: the reference recorder needs answers only.
	valueOnly bool
	// counts made at the layer boundaries
	candidates []float64
	predictNS  []float64
	predErr    []float64
	setGen     []float64
	aggregate  []float64
	// proxy paths the measured replayed jobs evaluated and escalated
	proxyEvaluated, proxyEscalated int
	// probes are the select probes of the request being replayed; they run
	// once its root span has ended, so they never count as request time.
	probes []selectProbe
}

type selectProbe struct {
	f eeb.CharacteristicParams
	c provision.Constraints
}

// newReplayer boots a deployer the way cmd/disard does: same root seed,
// same warm knowledge base, boot-time retrain over the whole KB.
func newReplayer(warmKB string, tr *tracer) (*replayer, error) {
	k, err := kb.LoadFile(warmKB)
	if err != nil {
		return nil, err
	}
	d, err := core.NewDeployer(daemonSeed, core.WithKnowledgeBase(k))
	if err != nil {
		return nil, err
	}
	return &replayer{d: d, buffers: stochastic.NewBatchPool(), tr: tr}, nil
}

// deploy mirrors core's serialized select -> launch -> record -> retrain
// section (Deployer.DeploySeeded) through the deployer's exported parts,
// so each step gets its own span.
func (rp *replayer) deploy(ctx context.Context, req string, parent int, f eeb.CharacteristicParams, c provision.Constraints, seed uint64) (predicted, actual float64, err error) {
	tr := rp.tr
	sp := tr.start("core.deploy", req, parent)
	defer tr.end(sp)
	rng := finmath.NewRNG(seed ^ cloudNoiseSalt)

	sel := tr.start("provision.select", req, sp)
	choice, err := rp.d.Selector().Select(ctx, f, c)
	if errors.Is(err, provision.ErrNoFeasible) {
		choice, err = rp.d.Selector().SelectFastest(ctx, f, c.MaxNodes)
	}
	tr.end(sel)
	if err != nil {
		return 0, 0, fmt.Errorf("select: %w", err)
	}
	if len(choice.Slots) != 1 {
		return 0, 0, fmt.Errorf("select: %d-slot deploy", len(choice.Slots))
	}
	slot := choice.Slots[0]

	cl := tr.start("cloud.deploy", req, sp)
	cluster, err := rp.d.Provider().Launch(rng, slot.Type, slot.Nodes, choice.Tier)
	if err != nil {
		return 0, 0, err
	}
	secs, err := cluster.RunBlock(rng, f)
	if err != nil {
		return 0, 0, err
	}
	cluster.Terminate()
	tr.end(cl)

	rec := tr.start("kb.record", req, sp)
	err = rp.d.KB().Add(kb.Sample{Architecture: slot.Type.Name, Nodes: slot.Nodes, Params: f, Seconds: secs})
	tr.end(rec)
	if err != nil {
		return 0, 0, err
	}
	ret := tr.start("provision.retrain", req, sp)
	err = rp.d.Predictor().RetrainArchitecture(rp.d.KB(), slot.Type.Name)
	tr.end(ret)
	if err != nil {
		return 0, 0, err
	}
	return choice.PredictedSeconds, secs, nil
}

// runProbes records, for every job of the request just replayed, the
// selector's candidate count and the time of one ensemble prediction.
func (rp *replayer) runProbes(ctx context.Context) {
	for _, p := range rp.probes {
		if cands, err := rp.d.Selector().Candidates(ctx, p.f, p.c); err == nil {
			rp.candidates = append(rp.candidates, float64(len(cands)))
		}
		arch := cloud.Catalog()[0].Name
		start := time.Now()
		if _, err := rp.d.Predictor().PredictSeconds(arch, 4, p.f); err == nil {
			rp.predictNS = append(rp.predictNS, float64(time.Since(start)))
		}
	}
	rp.probes = rp.probes[:0]
}

// jobSpec is one valuation of a request: a plain job, or one job of a
// campaign (shocked market, biometric basis, shared scenario source).
type jobSpec struct {
	body      body
	in        jobInputs
	market    stochastic.Config
	biometric eeb.Biometric
	scenarios stochastic.Source
}

// runJob replays one job under parent: deploy, split, valuate.
func (rp *replayer) runJob(ctx context.Context, req string, parent int, js jobSpec) (valuation, error) {
	tr := rp.tr
	b := js.body
	whole := &eeb.Block{ID: js.in.portfolio.Name + "/sim", Type: eeb.ALMValuation, Portfolio: js.in.portfolio,
		Fund: js.in.fund, Market: js.market, Outer: b.Outer, Inner: b.Inner, Biometric: js.biometric}
	if err := whole.Validate(); err != nil {
		return valuation{}, err
	}
	f := whole.Params()
	cons := provision.Constraints{TmaxSeconds: b.TmaxSeconds, MaxNodes: b.MaxNodes, Epsilon: b.Epsilon}
	var out valuation
	var err error
	if !rp.valueOnly {
		if tr != nil {
			rp.probes = append(rp.probes, selectProbe{f, cons})
		}
		if out.predicted, out.actual, err = rp.deploy(ctx, req, parent, f, cons, b.Seed); err != nil {
			return out, err
		}
		if out.predicted > 0 {
			rp.predErr = append(rp.predErr, math.Abs(out.predicted-out.actual)/out.actual)
		}
	}

	sp := tr.start("eeb.split", req, parent)
	blocks, err := eeb.SplitPortfolio(js.in.portfolio, js.in.fund, js.market, eeb.SplitSpec{
		MaxContractsPerBlock: maxContractsPerBlock, Outer: b.Outer, Inner: b.Inner,
		Biometric: js.biometric, Scenarios: js.scenarios, Buffers: rp.buffers,
	})
	tr.end(sp)
	if err != nil {
		return out, err
	}
	if b.Proxy != nil {
		out.results, out.proxy, err = rp.proxyValuation(ctx, req, parent, blocks, b.Seed)
	} else {
		sp = tr.start("grid.run", req, parent)
		out.results, err = (&grid.Master{Workers: b.MaxWorkers, Seed: b.Seed}).Run(ctx, blocks)
		tr.end(sp)
	}
	if err != nil {
		return out, err
	}
	out.bel, out.scr = sumBlocks(out.results)
	return out, nil
}

// proxyValuation serves every type-B block through the proxy tier: train on
// the block's seeded sample, then answer its outer paths (core's
// runProxyValuation, one block at a time).
func (rp *replayer) proxyValuation(ctx context.Context, req string, parent int, blocks []*eeb.Block, seed uint64) (map[string]*alm.Result, proxyval.Stats, error) {
	tr := rp.tr
	results := make(map[string]*alm.Result)
	var total proxyval.Stats
	ordered := eeb.TypeB(blocks)
	eeb.SortByComplexity(ordered)
	stats := make(map[string]proxyval.Stats)
	for _, b := range ordered {
		v, err := alm.NewValuer(b, seed)
		if err != nil {
			return nil, total, err
		}
		sp := tr.start("proxyval.train", req, parent)
		p, err := proxyval.Train(ctx, v, proxyval.Spec{}, blockSeed(seed, b.ID))
		tr.end(sp)
		if err != nil {
			return nil, total, err
		}
		sp = tr.start("proxyval.value", req, parent)
		res, st, err := p.Value(ctx, v, nil)
		tr.end(sp)
		if err != nil {
			return nil, total, err
		}
		results[b.ID] = res
		stats[b.ID] = st
	}
	ids := make([]string, 0, len(stats))
	for id := range stats {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		total.Merge(stats[id])
	}
	return results, total, nil
}

// blockSeed is core's per-block proxy-model seed.
func blockSeed(seed uint64, blockID string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(blockID))
	return seed ^ h.Sum64()
}

// replayJob replays one job request as its own span tree.
func (rp *replayer) replayJob(ctx context.Context, req string, b body) (valuation, error) {
	defer rp.runProbes(ctx)
	tr := rp.tr
	root := tr.start("job", req, -1)
	defer tr.end(root)
	sp := tr.start("policy.portfolio_gen", req, root)
	in, err := buildInputs(b)
	tr.end(sp)
	if err != nil {
		return valuation{}, err
	}
	return rp.runJob(ctx, req, root, jobSpec{body: b, in: in, market: in.market})
}

// campaignAnswer is the replayed outcome of a stress campaign.
type campaignAnswer struct {
	base    valuation
	modules map[string]float64 // module -> delta BEL
	scr     stress.SCR
	jobs    []valuation
}

// replayCampaign replays a standard-formula campaign the way core's
// SubmitCampaign wires it: one shared memoizing scenario set, the base job
// on it, and one job per shock module on a Derived view of it.
func (rp *replayer) replayCampaign(ctx context.Context, req string, b body) (campaignAnswer, error) {
	defer rp.runProbes(ctx)
	tr := rp.tr
	root := tr.start("campaign", req, -1)
	defer tr.end(root)
	sp := tr.start("policy.portfolio_gen", req, root)
	in, err := buildInputs(b)
	tr.end(sp)
	if err != nil {
		return campaignAnswer{}, err
	}
	gen, err := stochastic.NewGenerator(in.market)
	if err != nil {
		return campaignAnswer{}, err
	}
	set := stochastic.NewSet(gen, b.Seed)
	var out campaignAnswer
	out.base, err = rp.runJob(ctx, req, root, jobSpec{body: b, in: in, market: in.market, scenarios: set})
	if err != nil {
		return out, fmt.Errorf("base job: %w", err)
	}
	out.jobs = append(out.jobs, out.base)
	out.modules = make(map[string]float64)
	deltas := make(map[stress.Module]float64)
	for _, sh := range stress.StandardFormula() {
		v, err := rp.runJob(ctx, req, root, jobSpec{
			body: b, in: in, market: sh.Market.Config(in.market),
			biometric: eeb.Biometric{}.Compose(sh.Biometric), scenarios: stochastic.Derived(set, sh.Market),
		})
		if err != nil {
			return out, fmt.Errorf("module %s: %w", sh.Module, err)
		}
		out.jobs = append(out.jobs, v)
		delta := max(v.bel-out.base.bel, 0)
		deltas[sh.Module] = delta
		out.modules[string(sh.Module)] = delta
	}
	sp = tr.start("stress.aggregate", req, root)
	start := time.Now()
	out.scr = stress.Aggregate(deltas)
	if tr != nil {
		rp.aggregate = append(rp.aggregate, float64(time.Since(start)))
		rp.setGen = append(rp.setGen, float64(set.Generated()))
	}
	tr.end(sp)
	return out, nil
}

// refOfCampaign turns a replayed campaign into a reference entry.
func refOfCampaign(b body, a campaignAnswer) refEntry {
	s := a.scr
	return refEntry{Key: b.refKey(), BaseBEL: a.base.bel, BaseVaRSCR: a.base.scr, Modules: a.modules,
		Campaign: &scrJSON{Interest: s.Interest, InterestDownBinding: s.InterestDownBinding,
			Market: s.Market, Life: s.Life, Other: s.Other, BSCR: s.BSCR}}
}
