// Command perfbench is the end-to-end benchmark of the disard valuation
// daemon. perfbench/run.sh builds ./cmd/disard and this program from source
// and runs it from the repository root:
//
//	bash perfbench/run.sh --workload small-jobs --seed 1 --seconds 20 --trace 0
//
// A run builds the seeded 150-sample warm knowledge base (the KB
// `kbgen -n 150` writes) and boots disard on loopback several times (see
// setupBoots), each with -seed 2016, -workers equal to the CPU count and a
// fresh copy of that KB; setup_s is the median time from exec to the first
// /healthz answer. One daemon serves the workload's closed-loop client (see
// workload.go); golden campaigns, interleaved with its requests, go to
// another. Every answer is checked: jobs against perfbench/reference.json
// within a relative 1e-9, the golden campaign bit for bit against
// testdata/golden_scr.json, and each boot's /healthz kb_samples against its
// start plus the jobs it completed. The last stdout line is one JSON object with the metrics
// BENCHMARK.json declares; any failed check makes it "correct": false and
// the exit code 1.
//
// With --trace 0 the metrics are the end-to-end ones. With --trace 1 the
// same HTTP pass is followed by an untraced and a traced in-process replay
// of every request through the layers' exported functions (layers.go), and
// the metrics are the per-layer ones; the spans, with self times, are
// written to .bench_build/trace-<workload>-<seed>.json.
//
// A run is a fixed number of requests, sized from --seconds, never a fixed
// duration, so a faster build does the same work. The reference table holds
// the answers for one --seconds value; after changing run_seconds in
// BENCHMARK.json or the workload generator, record it again at the parent
// commit with `bash perfbench/run.sh -record --seconds <run_seconds>`.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"disarcloud/internal/core"
	"disarcloud/internal/experiments"
)

const (
	// warmKBSamples and warmKBSeed reproduce `kbgen -n 150 -seed 2016`.
	warmKBSamples = 150
	warmKBSeed    = 2016
	// runLimit bounds a whole run, set-up and replay included.
	runLimit = 170 * time.Second
	// Every run boots the daemon setupBoots times only to time its set-up,
	// then once for the workload and goldenBoots times for the golden
	// campaigns, each boot on a fresh copy of the warm KB. The golden
	// campaigns re-check the golden on every workload and give the campaign
	// figures. A few campaigns per fresh boot keep each one's deploys on a
	// near-warm KB, and a boot of its own keeps their samples, whose order
	// hangs on thread timing, out of the workload's KB.
	setupBoots    = 4
	goldenBoots   = 4
	goldenPerBoot = 8
)

func main() {
	var (
		daemon  = flag.String("daemon", "", "disard binary")
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Uint64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 20, "run length the request count is sized for")
		trace   = flag.Int("trace", 0, "1 = report per-layer metrics from a traced in-process replay")
		record  = flag.Bool("record", false, "record perfbench/reference.json for every workload at --seconds and exit")
	)
	flag.Parse()
	var err error
	switch {
	case *record:
		err = recordRefs(*seconds)
	default:
		err = runBenchmark(*daemon, *name, *seed, *seconds, *trace == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// selfTest checks that every workload yields byte-identical bodies for the
// same seed, and that the seed does change them.
func selfTest(seconds int) error {
	workers := runtime.NumCPU()
	for _, w := range workloads {
		a := joinBodies(w.requests(7, seconds, workers))
		if !bytes.Equal(a, joinBodies(w.requests(7, seconds, workers))) {
			return fmt.Errorf("%s: the same seed gave different bodies", w.name)
		}
		varied := false
		for seed := uint64(8); seed < 16 && !varied; seed++ {
			varied = !bytes.Equal(a, joinBodies(w.requests(seed, seconds, workers)))
		}
		if !varied {
			return fmt.Errorf("%s: seeds 7..15 all gave the same bodies", w.name)
		}
	}
	return nil
}

func joinBodies(reqs []request) []byte {
	var buf bytes.Buffer
	for _, r := range reqs {
		buf.Write(r.body.bytes())
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// declaredUnits returns the unit of every metric BENCHMARK.json declares
// for this kind of run: the end-to-end metrics, or with --trace 1 the
// per-layer ones.
func declaredUnits(traced bool) (map[string]string, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	list := spec.EndToEnd
	if traced {
		list = spec.PerLayer
	}
	units := make(map[string]string, len(list))
	for _, m := range list {
		units[m.Name] = m.Unit
	}
	return units, nil
}

// run holds one benchmark run's state.
type run struct {
	workdir   string
	daemonBin string
	w         *workload
	seed      uint64
	workers   int
	reqs      []request
	refs      *refTable
	golden    refEntry
	warmKB    string
	setups    []float64 // seconds from exec to the first /healthz, per boot
	failures  []string
	mu        sync.Mutex
}

func (r *run) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

func runBenchmark(daemonBin, name string, seed uint64, seconds int, traced bool) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	if daemonBin == "" {
		return errors.New("-daemon is required (run through perfbench/run.sh)")
	}
	startWatchdog(runLimit)
	if err := selfTest(seconds); err != nil {
		return err
	}
	units, err := declaredUnits(traced)
	if err != nil {
		return err
	}
	r := &run{daemonBin: daemonBin, w: w, seed: seed, workers: runtime.NumCPU()}
	r.reqs = w.requests(seed, seconds, r.workers)
	if r.refs, err = loadRefs(filepath.Join("perfbench", "reference.json")); err != nil {
		return err
	}
	if r.golden, err = loadGolden(filepath.Join("testdata", "golden_scr.json"), goldenBody(0).Seed); err != nil {
		return err
	}
	r.workdir = filepath.Join(".bench_build", fmt.Sprintf("run-%s-%d-%d", name, seed, os.Getpid()))
	if err := os.MkdirAll(r.workdir, 0o755); err != nil {
		return err
	}
	metrics, attempted, err := r.execute(traced)
	if err != nil {
		return err // the work directory stays for its daemon logs
	}
	out := result{Attempted: attempted, Metrics: make(map[string]metric, len(metrics))}
	for k := range metrics {
		if _, ok := units[k]; !ok {
			return fmt.Errorf("metric %s is not declared in BENCHMARK.json", k)
		}
	}
	for k, unit := range units {
		v, ok := metrics[k]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			r.fail("metric %s has no finite value", k)
			continue
		}
		out.Metrics[k] = metric{Value: v, Unit: unit}
	}
	out.Correct, out.Failed = len(r.failures) == 0, len(r.failures)
	for _, f := range r.failures {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", f)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !out.Correct {
		return fmt.Errorf("%d failed operations or checks", len(r.failures))
	}
	return os.RemoveAll(r.workdir)
}

// execute performs set-up, the HTTP pass and, when traced, the replay.
func (r *run) execute(traced bool) (map[string]float64, int, error) {
	began := time.Now()
	phase := func(what string) {
		fmt.Fprintf(os.Stderr, "perfbench: %s done at %.1fs\n", what, time.Since(began).Seconds())
	}
	r.warmKB = filepath.Join(r.workdir, "kb-warm.json")
	if err := buildWarmKB(r.warmKB); err != nil {
		return nil, 0, err
	}
	ctx := context.Background()
	for i := 0; i < setupBoots; i++ {
		d, err := r.boot(ctx)
		if err != nil {
			return nil, 0, err
		}
		if err := d.stop(); err != nil {
			return nil, 0, fmt.Errorf("stop disard: %w", err)
		}
	}
	phase("set-up")
	d, err := r.boot(ctx)
	if err != nil {
		return nil, 0, err
	}
	p := &httpPass{}
	err = r.mainPass(ctx, d, p)
	if stopErr := d.stop(); err == nil && stopErr != nil {
		err = fmt.Errorf("stop disard: %w", stopErr)
	}
	if err != nil {
		return nil, 0, err
	}
	phase("HTTP pass")
	metrics := make(map[string]float64)
	if traced {
		if err := r.httpLayerMetrics(p, metrics); err != nil {
			return nil, 0, err
		}
		if err := r.replay(ctx, r.warmKB, p, metrics); err != nil {
			return nil, 0, err
		}
		phase("replay")
	} else {
		r.endToEndMetrics(p, metrics)
		metrics["setup_s"] = median(r.setups)
	}
	return metrics, len(p.allGoldens()) + len(p.jobs), nil
}

// boot starts disard on a fresh copy of the warm KB (the daemon rewrites
// -kb at shutdown, and retrain cost grows with KB size, so a reused file
// would drift run to run) and records its set-up time.
func (r *run) boot(ctx context.Context) (*daemon, error) {
	d, took, err := bootDaemon(ctx, r.daemonBin, r.workdir, r.warmKB, r.workers, len(r.setups))
	if err != nil {
		return nil, err
	}
	r.setups = append(r.setups, took.Seconds())
	return d, nil
}

// buildWarmKB reproduces cmd/kbgen's seeded knowledge-base build.
func buildWarmKB(path string) error {
	c, err := experiments.NewCampaign(warmKBSeed, core.WithRetrainEvery(5))
	if err != nil {
		return err
	}
	if err := c.BuildKB(warmKBSamples); err != nil {
		return err
	}
	return c.Deployer.KB().SaveFile(path)
}
