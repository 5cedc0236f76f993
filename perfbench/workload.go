package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sync"
)

// body is one valuation request exactly as the daemon's submit endpoints
// decode it. Every field the valuation depends on is explicit — above all
// the seed — so the daemon applies no server-side default and the answer is
// a function of the body alone.
type body struct {
	Portfolio   int        `json:"portfolio"`
	Contracts   int        `json:"contracts"`
	FundAssets  int        `json:"fund_assets"`
	Outer       int        `json:"outer"`
	Inner       int        `json:"inner"`
	TmaxSeconds float64    `json:"tmax_seconds"`
	MaxNodes    int        `json:"max_nodes"`
	Epsilon     float64    `json:"epsilon"`
	MaxWorkers  int        `json:"max_workers"`
	Seed        uint64     `json:"seed"`
	Proxy       *proxyBody `json:"proxy,omitempty"`
}

// proxyBody is the "proxy" section of a job body; the zero value is `{}`,
// which routes the job through the LSMC proxy tier with the tier defaults.
type proxyBody struct{}

func (b body) bytes() []byte {
	out, err := json.Marshal(b)
	if err != nil {
		panic(err) // body holds only numbers and a fixed struct
	}
	return out
}

// refKey fingerprints a body for the reference table. max_workers is zeroed
// first: it is pinned to the machine's CPU count, and valuation results do
// not depend on it (the grid's outer-path partition is result-invariant).
func (b body) refKey() string {
	b.MaxWorkers = 0
	sum := sha256.Sum256(b.bytes())
	return hex.EncodeToString(sum[:8])
}

// goldenBody is the pinned stress campaign whose outcome the repository
// records in testdata/golden_scr.json.
func goldenBody(workers int) body {
	return body{Portfolio: 0, Contracts: 10, FundAssets: 5, Outer: 60, Inner: 5,
		TmaxSeconds: 3600, MaxNodes: 4, Epsilon: 0, MaxWorkers: workers, Seed: 20160628}
}

// workload is one closed-loop traffic mix, sent by a single client: with
// two clients on two cores the order the knowledge base receives its
// samples, and so every later deploy choice, would hang on thread timing,
// and the figures on how the concurrent jobs happen to overlap. A run of it
// is a fixed list of slots: slot k's sizes are drawn from a stream fixed per
// workload and slot, so every run of a given length carries the same
// multiset of job sizes (and small-jobs walks the same knowledge-base
// sizes); the run seed only picks, per slot, one of `variants` valuation
// seeds. The slots always run in the same order: with exploration off, the
// order of the samples decides which architecture the selector settles on,
// and so both the deploy cost and the retrain cost of every later job, and
// a seeded order would make those figures follow the seed instead of the
// code. The reference table holds the answer of every (slot, variant) pair,
// so the oracle covers every seed.
type workload struct {
	name string
	// perSecond is the measured request count per second of --seconds; it
	// was sized so the workload's own requests take about --seconds at the
	// seed commit.
	perSecond float64
	// warmup requests run first and are excluded from the figures.
	warmup   int
	variants int
	slot     func(r *splitmix, workers int) body
}

var workloads = []*workload{
	{
		name:      "small-jobs",
		perSecond: 10,
		warmup:    8,
		variants:  4,
		slot: func(r *splitmix, workers int) body {
			tmax := []float64{60, 120, 300, 900}
			return body{
				Portfolio: r.intn(3), Contracts: 6 + r.intn(45), FundAssets: 3 + r.intn(4),
				Outer: 8 + r.intn(23), Inner: 3 + r.intn(3), TmaxSeconds: tmax[r.intn(len(tmax))],
				MaxNodes: 8, Epsilon: 0, MaxWorkers: workers,
			}
		},
	},
	{
		name:      "nested-large",
		perSecond: 0.65,
		warmup:    1,
		variants:  2,
		slot: func(r *splitmix, workers int) body {
			tmax := []float64{900, 1800, 3600}
			return body{
				Portfolio: r.intn(3), Contracts: 25 + r.intn(26), FundAssets: 6,
				Outer: 1800 + r.intn(401), Inner: 20, TmaxSeconds: tmax[r.intn(len(tmax))],
				MaxNodes: 8, Epsilon: 0, MaxWorkers: workers,
			}
		},
	},
	{
		name:      "proxy-serving",
		perSecond: 4,
		warmup:    4,
		variants:  2,
		slot: func(r *splitmix, workers int) body {
			tmax := []float64{900, 1800, 3600}
			return body{
				Portfolio: r.intn(3), Contracts: 25 + r.intn(51), FundAssets: 6,
				Outer: 2000, Inner: 20, TmaxSeconds: tmax[r.intn(len(tmax))],
				MaxNodes: 8, Epsilon: 0, MaxWorkers: workers, Proxy: &proxyBody{},
			}
		},
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// count is the number of measured requests of a run of the given length.
func (w *workload) count(seconds int) int {
	return max(1, int(w.perSecond*float64(seconds)+0.5))
}

// request is one generated request of a run.
type request struct {
	slot, variant int
	warmup        bool
	body          body
}

// slotBody returns slot k's body with valuation-seed variant v. Slot sizes
// come from a stream keyed by (workload, slot) alone. The valuation seed
// also seeds the generated portfolio, whose contract terms set the cost of
// the valuation, so variants v > 0 take the next seeds of the slot's seed
// stream whose portfolio has the same longest term and a total term within
// 2% of variant 0's: every variant of a slot costs the same work.
func (w *workload) slotBody(k, v, workers int) body {
	key := [3]int{k, v, workers}
	slotMu.Lock()
	defer slotMu.Unlock()
	if b, ok := slotCache[w][key]; ok {
		return b
	}
	b := w.slot(newSplitmix(hashString(w.name), uint64(k)), workers)
	seeds := newSplitmix(hashString(w.name)^0x5eed, uint64(k))
	b.Seed = 1 + seeds.next()>>33
	maxTerm, total := termsOf(b)
	for found := 0; found < v; {
		b.Seed = 1 + seeds.next()>>33
		if m, t := termsOf(b); m == maxTerm && math.Abs(float64(t-total)) <= 0.02*float64(total) {
			found++
		}
	}
	if slotCache[w] == nil {
		slotCache[w] = make(map[[3]int]body)
	}
	slotCache[w][key] = b
	return b
}

// slotCache memoizes slotBody: the variant search generates portfolios, and
// the self-test regenerates every run's bodies several times.
var (
	slotMu    sync.Mutex
	slotCache = map[*workload]map[[3]int]body{}
)

// termsOf returns the longest and the total remaining term of the portfolio
// the daemon generates for b.
func termsOf(b body) (maxTerm, total int) {
	in, err := buildInputs(b)
	if err != nil {
		panic(err) // slot generators only emit valid portfolio specs
	}
	for _, c := range in.portfolio.Contracts {
		total += c.Term
	}
	return in.portfolio.MaxTerm(), total
}

// requests generates a run: warm-up slots first (slots
// count..count+warmup-1), then the measured slots 0..count-1, each with a
// seeded variant. The same (seed, seconds, workers) always yields
// byte-identical bodies.
func (w *workload) requests(seed uint64, seconds, workers int) []request {
	n := w.count(seconds)
	r := newSplitmix(hashString(w.name)^seed, 0x0dde4)
	var out []request
	for k := 0; k < w.warmup; k++ {
		v := r.intn(w.variants)
		out = append(out, request{slot: n + k, variant: v, warmup: true, body: w.slotBody(n+k, v, workers)})
	}
	for k := 0; k < n; k++ {
		v := r.intn(w.variants)
		out = append(out, request{slot: k, variant: v, body: w.slotBody(k, v, workers)})
	}
	return out
}

// splitmix is SplitMix64: a tiny, fully specified generator, so generated
// bodies never change with the Go release.
type splitmix struct{ s uint64 }

func newSplitmix(seed, stream uint64) *splitmix {
	r := &splitmix{s: seed ^ (stream * 0x9e3779b97f4a7c15)}
	r.next()
	return r
}

func (r *splitmix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// intn returns a value in [0, n); the modulo bias is irrelevant here.
func (r *splitmix) intn(n int) int { return int(r.next() % uint64(n)) }

func hashString(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}
