package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer. Spans of one request share Req;
// Parent is the index of the span that caused this one (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Req    string `json:"req"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory. A nil *tracer records nothing, so the
// untraced replay runs the exact same code path. It is used from one
// goroutine.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its handle.
func (t *tracer) start(name, req string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
}

// durations returns the durations (ns) of the kept requests' spans with the
// given name.
func (t *tracer) durations(name string, keep func(req string) bool) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && keep(s.Req) {
			out = append(out, float64(s.dur()))
		}
	}
	return out
}

// selfTimes returns each span's duration minus the part of its interval its
// child spans cover.
func (t *tracer) selfTimes() []time.Duration {
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return t.spans[kids[a]].Start < t.spans[kids[b]].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			from, to := max(t.spans[k].Start, reach), min(t.spans[k].End, s.End)
			if to > from {
				covered += to - from
				reach = to
			}
		}
		self[i] = s.dur() - time.Duration(covered)
	}
	return self
}

// layerOf maps a span name to its layer: the part before the first dot.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// traceSummary aggregates spans by name and self time by layer, relative to
// the total duration of the kept requests' root spans.
type traceSummary struct {
	RootMS  float64                `json:"root_ms"`
	ByName  map[string]nameSummary `json:"by_name"`
	ByLayer map[string]float64     `json:"self_frac_by_layer"`
}

type nameSummary struct {
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

func (t *tracer) summarize(keep func(req string) bool) traceSummary {
	self := t.selfTimes()
	sum := traceSummary{ByName: map[string]nameSummary{}, ByLayer: map[string]float64{}}
	var rootNS float64
	for i, s := range t.spans {
		if !keep(s.Req) {
			continue
		}
		if s.Parent < 0 {
			rootNS += float64(s.dur())
		}
		ns := sum.ByName[s.Name]
		ns.Count++
		ns.TotalMS += float64(s.dur()) / 1e6
		ns.SelfMS += float64(self[i]) / 1e6
		sum.ByName[s.Name] = ns
		sum.ByLayer[layerOf(s.Name)] += float64(self[i])
	}
	for l := range sum.ByLayer {
		sum.ByLayer[l] /= rootNS
	}
	sum.RootMS = rootNS / 1e6
	return sum
}

func (t *tracer) write(path string, sum traceSummary) error {
	data, err := json.Marshal(struct {
		Summary traceSummary `json:"summary"`
		Spans   []span       `json:"spans"`
	}{sum, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
