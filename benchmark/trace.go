package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ganc"
)

// reqHeader carries the client request's id into the program, so the spans a
// request causes on the other side of the HTTP hop share its identifier.
const reqHeader = "X-Bench-Req"

// span is one timed interval at a layer boundary. Times are nanoseconds since
// the tracer's epoch. Parent is the id of the span that caused this one (0
// for a client span); Req is the client request all of them belong to.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory from the benchmark's own wrappers. It is
// off outside the traced window, where every wrapper is a single atomic load.
type tracer struct {
	epoch  time.Time
	on     atomic.Bool
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

func (t *tracer) newID() int64 { return t.nextID.Add(1) }

func (t *tracer) add(id, parent, req int64, name string, start, end time.Time) {
	s := span{ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// spanRef is what a wrapper leaves in the request context for the next layer
// down: the enclosing span and the client request.
type spanRef struct{ id, req int64 }

type spanRefKey struct{}

// wrapHandler times next per request under the given layer name (the route
// is appended). The client span's id is the request id, so it is the parent.
func (t *tracer) wrapHandler(layer string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.enabled() {
			next.ServeHTTP(w, r)
			return
		}
		req, err := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
		if err != nil {
			next.ServeHTTP(w, r) // not a client request of ours (health probes, scrapes)
			return
		}
		id := t.newID()
		ctx := context.WithValue(r.Context(), spanRefKey{}, spanRef{id: id, req: req})
		start := time.Now()
		next.ServeHTTP(w, r.WithContext(ctx))
		t.add(id, req, req, layer+r.URL.Path, start, time.Now())
	})
}

// tracedEngine is the Engine decorator handed to ganc.NewServer: it times the
// online sweep under the handler span that asked for it. An ingest swap
// replaces the engine, so it observes computes until the first swap only.
type tracedEngine struct {
	ganc.Engine
	t *tracer
}

func (e tracedEngine) RecommendUser(ctx context.Context, u ganc.UserID, n int) (ganc.TopNSet, error) {
	ref, ok := ctx.Value(spanRefKey{}).(spanRef)
	if !ok || !e.t.enabled() {
		return e.Engine.RecommendUser(ctx, u, n)
	}
	start := time.Now()
	set, err := e.Engine.RecommendUser(ctx, u, n)
	e.t.add(e.t.newID(), ref.id, ref.req, "core.recommend_user", start, time.Now())
	return set, err
}

// selfStat aggregates one span name.
type selfStat struct {
	Count  int     `json:"count"`
	MeanUS float64 `json:"mean_us"`
	SelfUS float64 `json:"self_mean_us"`
}

// selfTimes computes, per span name, the mean duration and the mean self time:
// a span's duration minus the part of its interval its child spans cover
// (overlapping children — a batch handler's parallel sweeps — count once).
func selfTimes(spans []span) map[string]selfStat {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	type acc struct {
		n         int
		dur, self int64
	}
	sums := make(map[string]*acc)
	for _, s := range spans {
		a := sums[s.Name]
		if a == nil {
			a = &acc{}
			sums[s.Name] = a
		}
		a.n++
		a.dur += s.End - s.Start
		a.self += s.End - s.Start - covered(s, children[s.ID])
	}
	out := make(map[string]selfStat, len(sums))
	for name, a := range sums {
		out[name] = selfStat{Count: a.n,
			MeanUS: float64(a.dur) / float64(a.n) / 1e3,
			SelfUS: float64(a.self) / float64(a.n) / 1e3}
	}
	return out
}

// covered is the length of the union of the child intervals, clipped to the
// parent's interval.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
	var total int64
	curStart, curEnd := int64(0), int64(-1)
	flush := func() {
		if curEnd > curStart {
			total += curEnd - curStart
		}
	}
	for _, k := range kids {
		lo, hi := k.Start, k.End
		if lo < parent.Start {
			lo = parent.Start
		}
		if hi > parent.End {
			hi = parent.End
		}
		if hi <= lo {
			continue
		}
		if curEnd < curStart || lo > curEnd {
			flush()
			curStart, curEnd = lo, hi
		} else if hi > curEnd {
			curEnd = hi
		}
	}
	flush()
	return total
}

// traceFile is the JSON document written to out/trace-<workload>.json.
type traceFile struct {
	Stamp    stamp               `json:"stamp"`
	Workload string              `json:"workload"`
	Metrics  map[string]float64  `json:"metrics"`
	Self     map[string]selfStat `json:"self_time_by_span"`
	Spans    []span              `json:"spans"`
}

func writeTrace(outDir string, tf traceFile) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(outDir, "trace-"+tf.Workload+".json"))
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(tf); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
