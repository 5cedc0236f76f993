package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"disarcloud/internal/alm"
	"disarcloud/internal/eeb"
	"disarcloud/internal/fund"
	"disarcloud/internal/grid"
	"disarcloud/internal/kb"
	"disarcloud/internal/ml"
	"disarcloud/internal/policy"
	"disarcloud/internal/stochastic"
	"disarcloud/internal/stress"
)

// Layer probes time one kernel call repeatedly on a request's own inputs,
// because a span per call would cost more than the call. Each probe runs
// for at least probeBudget and reports the per-call (or per-path) time.
const (
	probeBudget = 40 * time.Millisecond
	probePaths  = 64
)

// sink keeps probed results alive so the compiler cannot drop the calls.
var sink float64

// repeat calls fn until probeBudget has passed (and at least three times)
// and returns the mean time of one call.
func repeat(fn func()) time.Duration {
	start := time.Now()
	n := 0
	for time.Since(start) < probeBudget || n < 3 {
		fn()
		n++
	}
	return time.Since(start) / time.Duration(n)
}

// probeBlocks derives body b's inputs and splits its portfolio into blocks
// that generate their own scenarios, as a plain job does.
func probeBlocks(b body) (jobInputs, []*eeb.Block, error) {
	in, err := buildInputs(b)
	if err != nil {
		return in, nil, err
	}
	blocks, err := eeb.SplitPortfolio(in.portfolio, in.fund, in.market, eeb.SplitSpec{
		MaxContractsPerBlock: maxContractsPerBlock, Outer: b.Outer, Inner: b.Inner,
	})
	return in, blocks, err
}

// kernelProbe measures the valuation kernels on body b's inputs.
func kernelProbe(b body, metrics map[string]float64) error {
	in, blocks, err := probeBlocks(b)
	if err != nil {
		return err
	}
	block := eeb.TypeB(blocks)[0]
	nOuter := min(block.Outer, probePaths)

	// alm: one goroutine walking nOuter outer paths with all their inner paths.
	v, err := alm.NewValuer(block, b.Seed)
	if err != nil {
		return err
	}
	var walkErr error
	per := repeat(func() {
		y, err := v.ValueRange(context.Background(), 0, nOuter, nil)
		if err != nil {
			walkErr = err
		} else {
			sink += y[0]
		}
	})
	if walkErr != nil {
		return walkErr
	}
	metrics["alm.ns_per_inner_path"] = float64(per) / float64(nOuter*b.Inner)

	// stochastic: batched path generation, outer then inner paths.
	gen, err := stochastic.NewGenerator(in.market)
	if err != nil {
		return err
	}
	src := stochastic.NewPathSource(gen, b.Seed)
	pool := stochastic.NewBatchPool()
	outer, inner := src.NewBatch(pool, probePaths), src.NewBatch(pool, probePaths)
	per = repeat(func() {
		src.OuterBatch(0, probePaths, outer)
		src.InnerBatch(0, 0, probePaths, outer.View(0), 1, inner)
	})
	metrics["stochastic.gen_ns_per_path"] = float64(per) / float64(2*probePaths)

	// stochastic: the cached Vasicek curve point the bond sleeves price.
	yc := stochastic.NewYieldCache(in.market.Rate, 5)
	const yieldCalls = 4096
	per = repeat(func() {
		for i := 0; i < yieldCalls; i++ {
			sink += yc.Yield(0.05 * float64(i) / yieldCalls)
		}
	})
	metrics["stochastic.yield_ns_per_call"] = float64(per) / yieldCalls

	// fund: market returns along each inner path of the batch.
	fnd, err := fund.New(in.fund, in.market)
	if err != nil {
		return err
	}
	years := max(in.portfolio.MaxTerm()-1, 1)
	out, idx := make([]float64, years), make([]int, years+1)
	per = repeat(func() {
		for p := 0; p < probePaths; p++ {
			sink += fnd.MarketReturnsInto(inner.View(p), years, out, idx)[0]
		}
	})
	metrics["fund.returns_ns_per_call"] = float64(per) / probePaths

	// policy: every contract's cash flows along one return path.
	returns := fnd.Returns(inner.View(0), in.portfolio.MaxTerm())
	maxTerm := in.portfolio.MaxTerm()
	fs := policy.FlowSchedule{Death: make([]float64, maxTerm), Surrender: make([]float64, maxTerm), Survival: make([]float64, maxTerm)}
	sums := make([]float64, maxTerm)
	var flowErr error
	per = repeat(func() {
		for _, c := range in.portfolio.Contracts {
			if err := c.FlowsInto(returns, &fs, sums); err != nil {
				flowErr = err
			}
			sink += fs.Maturity
		}
	})
	if flowErr != nil {
		return flowErr
	}
	metrics["policy.flows_ns_per_call"] = float64(per) / float64(len(in.portfolio.Contracts))

	// stochastic: a Derived view over a memoizing Set — the campaign reuse
	// path, timed once the base paths are cached.
	set := stochastic.NewSet(gen, b.Seed)
	derived, ok := stochastic.Derived(set, stress.StandardFormula()[0].Market).(interface {
		stochastic.InnerBatcher
		stochastic.OuterBatcher
	})
	if !ok {
		return errors.New("derived scenario source does not batch")
	}
	db := derived.NewBatch(pool, probePaths)
	if db == nil {
		return errors.New("derived scenario source has no panel shape")
	}
	derived.OuterBatch(0, probePaths, db)
	per = repeat(func() { derived.OuterBatch(0, probePaths, db) })
	metrics["stochastic.derive_ns_per_path"] = float64(per) / probePaths
	return nil
}

// gridProbe times Master.Run and RunSequential on body b's blocks: the
// parallel efficiency is the sequential time over workers x parallel time.
func gridProbe(b body, metrics map[string]float64) (runMS float64, err error) {
	_, blocks, err := probeBlocks(b)
	if err != nil {
		return 0, err
	}
	ctx := context.Background()
	start := time.Now()
	if _, err := (&grid.Master{Workers: b.MaxWorkers, Seed: b.Seed}).Run(ctx, blocks); err != nil {
		return 0, err
	}
	par := time.Since(start)
	start = time.Now()
	if _, err := grid.RunSequential(ctx, blocks, b.Seed); err != nil {
		return 0, err
	}
	seq := time.Since(start)
	metrics["grid.parallel_efficiency"] = float64(seq) / (float64(b.MaxWorkers) * float64(par))
	return float64(par) / 1e6, nil
}

// mlProbe trains the predictor's learners on every architecture's dataset of
// the final knowledge base and times the instance-based learners' Predict.
func mlProbe(k *kb.KB, metrics map[string]float64) error {
	var mlp, forest, table time.Duration
	var kstarNS, ibkNS float64
	var archs, predictions int
	for _, arch := range k.Architectures() {
		ds := k.Dataset(arch)
		if ds.Len() == 0 {
			continue
		}
		archs++
		for _, m := range []struct {
			model ml.Model
			acc   *time.Duration
		}{{ml.NewMLP(1), &mlp}, {ml.NewRandomForest(3), &forest}, {ml.NewDecisionTable(), &table}} {
			start := time.Now()
			if err := m.model.Train(ds); err != nil {
				return fmt.Errorf("train %s on %s: %w", m.model.Name(), arch, err)
			}
			*m.acc += time.Since(start)
		}
		for _, m := range []struct {
			model ml.Model
			acc   *float64
		}{{ml.NewKStar(), &kstarNS}, {ml.NewIBk(), &ibkNS}} {
			if err := m.model.Train(ds); err != nil {
				return fmt.Errorf("train %s on %s: %w", m.model.Name(), arch, err)
			}
			start := time.Now()
			for _, inst := range ds.Instances {
				sink += m.model.Predict(inst.Features)
			}
			*m.acc += float64(time.Since(start))
		}
		predictions += ds.Len()
	}
	if archs == 0 {
		return errors.New("knowledge base has no samples")
	}
	metrics["ml.mlp_train_ms"] = float64(mlp) / 1e6 / float64(archs)
	metrics["ml.forest_train_ms"] = float64(forest) / 1e6 / float64(archs)
	metrics["ml.dectable_train_ms"] = float64(table) / 1e6 / float64(archs)
	metrics["ml.kstar_predict_us"] = kstarNS / 1e3 / float64(predictions)
	metrics["ml.ibk_predict_us"] = ibkNS / 1e3 / float64(predictions)
	return nil
}
