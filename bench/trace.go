package main

// In-memory spans recorded by the decorators around the calls into each
// layer, and the fold that turns them into per-layer self times. Spans
// inside the program are a later issue; these are taken from outside.

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

var epoch = time.Now()

// nowNs is monotonic nanoseconds since process start.
func nowNs() int64 { return int64(time.Since(epoch)) }

// span is one timed interval at a layer boundary. Parent and Op are filled
// by fold: Parent is the index of the innermost span that contains this
// one in time (-1 for none), Op the index of the unit op whose window
// contains it (-1 for background work between ops).
type span struct {
	Name   string `json:"name"`
	Tag    string `json:"tag,omitempty"` // route, or the layer of a node.turn
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Self   int64  `json:"self"`
}

type tracer struct {
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{} }

func (t *tracer) add(name, tag string, start, end int64) {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Tag: tag, Start: start, End: end})
	t.mu.Unlock()
}

// take returns the recorded spans and clears the tracer.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans
	t.spans = nil
	return s
}

// window is one unit op's start and end as its client saw them.
type window struct{ Start, End int64 }

// fold orders spans by start, assigns each its parent by time containment
// and its unit op, and computes self time: duration minus the part of the
// interval that the span's direct children cover. ops must be sorted and
// non-overlapping (one client).
func fold(spans []span, ops []window) []span {
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].End > spans[j].End
	})
	var stack []int
	children := make([][]int, len(spans))
	for i := range spans {
		s := &spans[i]
		for len(stack) > 0 && spans[stack[len(stack)-1]].End < s.End {
			stack = stack[:len(stack)-1]
		}
		s.Parent = -1
		if len(stack) > 0 {
			s.Parent = stack[len(stack)-1]
			children[s.Parent] = append(children[s.Parent], i)
		}
		stack = append(stack, i)

		s.Op = -1
		k := sort.Search(len(ops), func(k int) bool { return ops[k].End >= s.End })
		if k < len(ops) && ops[k].Start <= s.Start {
			s.Op = k
		}
	}
	for i := range spans {
		iv := make([]window, len(children[i]))
		for k, c := range children[i] {
			iv[k] = window{spans[c].Start, spans[c].End}
		}
		spans[i].Self = spans[i].End - spans[i].Start - covered(iv)
	}
	return spans
}

// covered is the length of the union of intervals sorted by start.
func covered(iv []window) int64 {
	var total, end int64
	for i, w := range iv {
		if i == 0 || w.Start > end {
			total += w.End - w.Start
			end = w.End
		} else if w.End > end {
			total += w.End - end
			end = w.End
		}
	}
	return total
}

// traceSummary is what the per-layer time metrics are read from.
type traceSummary struct {
	Ops int `json:"ops"`
	// SelfMsPerOp is each span name's (name or name[tag]) self time inside
	// unit-op windows, per op. Concurrent spans on different nodes each
	// count in full, so the sum may exceed the op's wall time.
	SelfMsPerOp map[string]float64 `json:"selfMsPerOp"`
	// AttributedPct is the share of unit-op wall time that at least one
	// span covers.
	AttributedPct float64 `json:"attributedPct"`
	// HandlerP50Ms is the median self time of httpgw.request, all routes
	// and by route.
	HandlerP50Ms map[string]float64 `json:"handlerP50Ms"`
}

func summarize(spans []span, ops []window) traceSummary {
	sum := traceSummary{Ops: len(ops), SelfMsPerOp: map[string]float64{}, HandlerP50Ms: map[string]float64{}}
	if len(ops) == 0 {
		return sum
	}
	perOp := make([][]window, len(ops))
	handler := map[string][]float64{}
	for _, s := range spans {
		if s.Name == "httpgw.request" {
			ms := float64(s.Self) / 1e6
			handler["all"] = append(handler["all"], ms)
			handler[s.Tag] = append(handler[s.Tag], ms)
		}
		if s.Op < 0 {
			continue
		}
		key := s.Name
		if s.Name == "node.turn" {
			key += "[" + s.Tag + "]"
		}
		sum.SelfMsPerOp[key] += float64(s.Self) / 1e6
		perOp[s.Op] = append(perOp[s.Op], window{s.Start, s.End})
	}
	var wall, cov int64
	for k, w := range ops {
		wall += w.End - w.Start
		cov += covered(perOp[k]) // spans arrive sorted by start
	}
	for k := range sum.SelfMsPerOp {
		sum.SelfMsPerOp[k] /= float64(len(ops))
	}
	if wall > 0 {
		sum.AttributedPct = 100 * float64(cov) / float64(wall)
	}
	for route, v := range handler {
		sum.HandlerP50Ms[route] = percentile(v, 50)
	}
	return sum
}

// writeTrace stores the traced phase for offline reading.
func writeTrace(path string, stamp envStamp, sum traceSummary, spans []span, ops []window) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Env     envStamp     `json:"env"`
		Summary traceSummary `json:"summary"`
		Ops     []window     `json:"ops"`
		Spans   []span       `json:"spans"`
	}{stamp, sum, ops, spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
