package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"testing"
	"time"
)

func TestHighestPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {99, 0}, {100, 0.90}, {199, 0.90}, {200, 0.95}, {999, 0.95},
		{1000, 0.99}, {9999, 0.99}, {10000, 0.999},
	} {
		if got := highestPercentile(tc.n); got != tc.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestTailFallsBackToSupportedPercentile(t *testing.T) {
	d := make([]time.Duration, 200)
	for k := range d {
		d[k] = time.Duration(k+1) * time.Millisecond
	}
	s := summarize(d)
	// 200 samples support p95 (ten beyond), not p99.
	if got, want := s.tail(0.99), 190*time.Millisecond; got != want {
		t.Errorf("tail(0.99) of 200 samples = %v, want the p95 %v", got, want)
	}
	if got, want := s.p50, 100*time.Millisecond; got != want {
		t.Errorf("p50 = %v, want %v", got, want)
	}
	if got := summarize(d[:5]).tail(0.99); got != 5*time.Millisecond {
		t.Errorf("tail of 5 samples = %v, want the maximum", got)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "client", Start: 0, End: 100},
		// Two overlapping children and one that outlives the parent: the
		// union clipped to [0,100] is [10,50] ∪ [90,100] = 50.
		{ID: 2, Parent: 1, Name: "handler", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "handler", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "handler", Start: 90, End: 120},
		{ID: 5, Parent: 2, Name: "engine", Start: 12, End: 22},
	}
	got := selfTimes(spans)
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
	if st := got["client"]; st.Count != 1 || !near(st.MeanUS, 0.1) || !near(st.SelfUS, 0.05) {
		t.Errorf("client: %+v, want mean 0.1us self 0.05us", st)
	}
	// handler: durations 20+30+30, selves 10+30+30.
	if st := got["handler"]; st.Count != 3 || !near(st.MeanUS*3, 0.08) || !near(st.SelfUS*3, 0.07) {
		t.Errorf("handler: %+v, want 3 spans with 80ns in total, 70ns of it self", st)
	}
	if st := got["engine"]; st.SelfUS != st.MeanUS {
		t.Errorf("engine (a leaf): %+v, want self = mean", st)
	}
}

func TestPatternSpreadsTheMixEvenly(t *testing.T) {
	for _, tc := range []struct {
		mx   mix
		want [opCount]int
	}{
		{mixedTraffic, [opCount]int{45, 4, 1}},
		{hotTraffic, [opCount]int{23, 2, 0}},
	} {
		p := tc.mx.pattern()
		var got [opCount]int
		lastBatch, maxGap := -1, 0
		for i, op := range p {
			got[op]++
			if op == opBatch {
				if lastBatch >= 0 && i-lastBatch > maxGap {
					maxGap = i - lastBatch
				}
				lastBatch = i
			}
		}
		if got != tc.want {
			t.Errorf("pattern of %v holds %v, want %v", tc.mx, got, tc.want)
		}
		// Spread over the cycle, not bunched: no gap twice the even share.
		if even := len(p) / tc.want[opBatch]; maxGap >= 2*even {
			t.Errorf("pattern of %v: batches up to %d slots apart, an even spread is %d", tc.mx, maxGap, even)
		}
	}
}

func TestStretchConvertsToNominalSpeed(t *testing.T) {
	ms := time.Millisecond
	half := stretch{length: 100 * ms, cpu: 180 * ms, ref: 2 * referenceNominal}
	if got := half.speed(); got != 0.5 {
		t.Errorf("speed with the reference at twice its nominal time = %v, want 0.5", got)
	}
	if got := half.nominal(20 * ms); got != 10*ms {
		t.Errorf("20 ms at half speed = %v at nominal speed, want 10 ms", got)
	}
	full := stretch{length: 100 * ms, cpu: 100 * ms, ref: referenceNominal}
	if got := full.nominal(20 * ms); got != 20*ms {
		t.Errorf("20 ms at nominal speed = %v, want it unchanged", got)
	}
}

func TestLapsAddStagesUpAtNominalSpeed(t *testing.T) {
	l := newLaps()
	l.begin()
	time.Sleep(5 * time.Millisecond)
	l.lap()
	first := l.nominal
	time.Sleep(5 * time.Millisecond)
	l.lap()
	if first <= 0 || l.nominal <= first {
		t.Errorf("two laps of 5 ms add up to %v after %v", l.nominal, first)
	}
	// The readings between stages are not part of any stage: three timings
	// of the reference take longer than both laps together.
	if l.nominal > 40*time.Millisecond {
		t.Errorf("two laps of 5 ms count %v at nominal speed; the reference readings leaked in", l.nominal)
	}
	l.begin()
	if l.nominal != 0 {
		t.Errorf("begin leaves %v of the previous set-up", l.nominal)
	}
}

func TestStopwatchBracketsEachStretch(t *testing.T) {
	w := newStopwatch(2)
	first := w.last
	s := w.stretch(time.Second, time.Second/2)
	if s.length != time.Second || s.cpu != time.Second/2 || s.ref != (first+w.last)/2 || s.ref <= 0 {
		t.Errorf("stretch = %+v after reference timings %v and %v", s, first, w.last)
	}
}

// TestPoolKeepsEveryRequest pins the block arithmetic, and that no request
// is left out for being slow: the gated numbers are over all of them.
func TestPoolKeepsEveryRequest(t *testing.T) {
	ms := time.Millisecond
	blocks := []block{
		{stretch: stretch{length: 100 * ms, cpu: 140 * ms, ref: referenceNominal}, ops: 2,
			reads: []time.Duration{ms, 20 * ms}}, // a 20 ms stall among the reads
		{stretch: stretch{length: 200 * ms, cpu: 220 * ms, ref: 2 * referenceNominal}, ops: 2,
			reads: []time.Duration{4 * ms}, heavy: []time.Duration{30 * ms}},
	}
	p := pool(blocks)
	if p.reads.count != 3 || p.heavy.count != 1 {
		t.Fatalf("pool holds %d reads and %d heavy operations, want 3 and 1", p.reads.count, p.heavy.count)
	}
	if got := p.reads.max(); got != 20*ms {
		t.Errorf("slowest read = %v, want the 20 ms stall", got)
	}
	if got := p.reads.p50; got != 2*ms {
		t.Errorf("read p50 = %v, want 2 ms (4 ms at half speed)", got)
	}
	if got := p.heavy.p50; got != 15*ms {
		t.Errorf("heavy p50 = %v, want 15 ms (30 ms at half speed)", got)
	}
	// 4 operations in 100 ms + 200 ms at half speed = 200 ms; 140 ms + 110 ms of CPU.
	if p.rate != 20 || p.cpuPerOp != 62500 || p.speed != 0.75 {
		t.Errorf("rate %v/s, %v us/op, speed %v; want 20/s, 62500 us/op, 0.75", p.rate, p.cpuPerOp, p.speed)
	}
	if empty := pool(nil); empty.rate != 0 || empty.reads.count != 0 {
		t.Errorf("pool of nothing = %+v", empty)
	}
}

var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestMetricNamesAndUnits(t *testing.T) {
	seen := map[string]bool{}
	for _, spec := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if !metricNameRE.MatchString(spec.name) {
			t.Errorf("metric name %q does not match %v", spec.name, metricNameRE)
		}
		if !unitRE.MatchString(spec.unit) {
			t.Errorf("metric %s: unit %q does not match %v", spec.name, spec.unit, unitRE)
		}
		if seen[spec.name] {
			t.Errorf("metric name %q is declared twice", spec.name)
		}
		seen[spec.name] = true
	}
	for _, name := range workloadNames {
		if !metricNameRE.MatchString(name) || seen[name] {
			t.Errorf("workload name %q is malformed or collides with a metric", name)
		}
		if workloads[name] == nil {
			t.Errorf("workload %q has no implementation", name)
		}
	}
}

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if want := []string{"bash", "benchmark/run.sh"}; !reflect.DeepEqual(bj.Command, want) {
		t.Errorf("command = %v, want %v", bj.Command, want)
	}
	if want := []string{"benchmark"}; !reflect.DeepEqual(bj.Paths, want) {
		t.Errorf("paths = %v, want %v", bj.Paths, want)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be 1–200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, the program runs %v", names, workloadNames)
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json declares %d end-to-end metrics, the program %d", len(bj.EndToEnd), len(endToEnd))
	}
	for k, spec := range endToEnd {
		got := bj.EndToEnd[k]
		if got.Name != spec.name || got.Unit != spec.unit || got.Better != spec.better || got.Bound != spec.bound {
			t.Errorf("end_to_end[%d] = %+v, the program declares %+v", k, got, spec)
		}
		if spec.bound <= 0 || spec.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", spec.name, spec.bound)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d per-layer metrics, the program %d", len(bj.PerLayer), len(perLayer))
	}
	for k, spec := range perLayer {
		if got := bj.PerLayer[k]; got.Name != spec.name || got.Unit != spec.unit || got.Better != spec.better {
			t.Errorf("per_layer[%d] = %+v, the program declares %+v", k, got, spec)
		}
	}
}

// TestSmokeWorkloads runs every workload, untraced and traced, at the smoke
// scale: every code path and every output check, no timing assertion. Under
// the race detector it runs a third of that scale, which still puts every
// goroutine of the harness (clients, tracer) to work.
func TestSmokeWorkloads(t *testing.T) {
	sc := smokeScale
	if raceDetector {
		sc.name, sc.users, sc.items, sc.ratings, sc.setupRepeats = "tiny", 600, 200, 12000, 1
	}
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			cfg := runConfig{workload: name, seed: 1, window: 300 * time.Millisecond, traced: traced,
				sc: sc, outDir: t.TempDir(), log: io.Discard}
			res, err := workloads[name](cfg)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", name, traced, err)
			}
			line := resultFor(res, traced)
			if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
				t.Errorf("%s (traced %v): correct %v, %d of %d failed: %v", name, traced, line.Correct, line.Failed, line.Attempted, res.problems)
			}
			var printed, declared []string
			for k := range line.Metrics {
				printed = append(printed, k)
			}
			for _, spec := range specsFor(traced) {
				declared = append(declared, spec.name)
			}
			sort.Strings(printed)
			sort.Strings(declared)
			if !reflect.DeepEqual(printed, declared) {
				t.Errorf("%s (traced %v): printed %v, declared %v", name, traced, printed, declared)
			}
			if name == "serve_mixed" && res.metrics["ingest.recover_replayed_events"] == 0 {
				t.Errorf("serve_mixed (traced %v): recovery replayed no event, so recover_s holds no WAL replay", traced)
			}
			if traced {
				if len(res.spans) == 0 {
					t.Errorf("%s: the traced run recorded no span", name)
				}
				tf := traceFile{Workload: name, Metrics: res.metrics, Self: selfTimes(res.spans), Spans: res.spans}
				if err := writeTrace(cfg.outDir, tf); err != nil {
					t.Errorf("%s: %v", name, err)
				}
			}
		}
	}
}
