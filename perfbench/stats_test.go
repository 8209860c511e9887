package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"sort"
	"testing"
	"time"
)

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 100}, {19, 100}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90},
		{199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
		if p := tailPercentile(tc.n); p < 100 && beyond(tc.n, p) < minBeyond {
			t.Errorf("n=%d: p%v leaves only %d samples beyond", tc.n, p, beyond(tc.n, p))
		}
	}
}

func TestTailValue(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted input
	}
	p, v := tail(xs)
	if p != 99 {
		t.Fatalf("percentile = %v, want 99", p)
	}
	if want := 990.01; math.Abs(v-want) > 1e-9 {
		t.Errorf("p99 of 1..1000 = %v, want %v", v, want)
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if _, v := tail([]float64{4, 9, 1}); v != 9 {
		t.Errorf("tail of three samples = %v, want the slowest, 9", v)
	}
}

func TestQuantileCountsMissesAsInfinite(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = 1
	}
	xs[98], xs[99] = math.Inf(1), math.Inf(1)
	if got := quantile(xs, 0.99); !math.IsInf(got, 1) {
		t.Errorf("p99 with 2%% misses = %v, want +Inf", got)
	}
	if got := quantile(xs, 0.5); got != 1 {
		t.Errorf("p50 with 2%% misses = %v, want 1", got)
	}
}

func ivl(a, b int) interval {
	return interval{time.Duration(a) * time.Millisecond, time.Duration(b) * time.Millisecond}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	for _, tc := range []struct {
		name     string
		parent   interval
		children []interval
		want     time.Duration
	}{
		{"no children", ivl(0, 10), nil, 10 * time.Millisecond},
		{"disjoint", ivl(0, 10), []interval{ivl(1, 3), ivl(5, 6)}, 7 * time.Millisecond},
		{"overlapping", ivl(0, 10), []interval{ivl(1, 3), ivl(2, 5)}, 6 * time.Millisecond},
		{"clipped to parent", ivl(0, 10), []interval{ivl(8, 12), ivl(11, 15)}, 8 * time.Millisecond},
		{"fully covered", ivl(0, 10), []interval{ivl(0, 6), ivl(4, 10)}, 0},
	} {
		if got := selfTime(tc.parent, tc.children); got != tc.want {
			t.Errorf("%s: selfTime = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestTracerCoveredIsChildSelfTimes(t *testing.T) {
	tr := &tracer{on: true}
	// root [0,100): a [10,40) holding a1 [15,25), b [50,90).
	tr.spans = []traceSpan{
		{name: "root", parent: -1, iv: ivl(0, 100)},
		{name: "a", parent: 0, iv: ivl(10, 40)},
		{name: "a1", parent: 1, iv: ivl(15, 25)},
		{name: "b", parent: 0, iv: ivl(50, 90)},
	}
	if got, want := tr.covered(), 0.070; math.Abs(got-want) > 1e-12 {
		t.Errorf("covered = %v s, want %v s", got, want)
	}
	for i, want := range []float64{0.030, 0.020, 0.010, 0.040} {
		if got := tr.selfByIndex()[i]; math.Abs(got-want) > 1e-12 {
			t.Errorf("self time of %s = %v s, want %v s", tr.spans[i].name, got, want)
		}
	}
}

func TestTracerOffRecordsNothing(t *testing.T) {
	tr := newTracer(false)
	tr.run("x", func() {})
	if len(tr.spans) != 0 || tr.covered() != 0 {
		t.Errorf("disabled tracer recorded %d spans", len(tr.spans))
	}
}

func TestLadderVerdict(t *testing.T) {
	ok := step{P99Ms: 10}
	for _, tc := range []struct {
		name  string
		steps []step
		want  int
	}{
		{"all pass", []step{ok, ok, ok}, 2},
		{"first fails", []step{{P99Ms: 300}, ok}, -1},
		{"latency limit", []step{ok, {P99Ms: 251}, ok}, 0},
		{"growing backlog", []step{ok, ok, {P99Ms: 10, Growing: true}}, 1},
		{"failed request", []step{ok, {P99Ms: 10, Failed: 1}}, 0},
		{"misses", []step{ok, {P99Ms: math.Inf(1)}}, 0},
		{"no credit above a failure", []step{ok, {Growing: true}, ok}, 0},
	} {
		if got := ladderVerdict(tc.steps, 250); got != tc.want {
			t.Errorf("%s: ladderVerdict = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// served builds a step of n requests due every gap, each sent after the
// wait wait(i) returns; a negative wait leaves the request unsent.
func served(n int, gap time.Duration, wait func(i int) time.Duration) (due, sent []time.Duration) {
	for i := 0; i < n; i++ {
		d := time.Duration(i) * gap
		due = append(due, d)
		if w := wait(i); w >= 0 {
			sent = append(sent, d+w)
		} else {
			sent = append(sent, -1)
		}
	}
	return due, sent
}

func TestBacklogGrowing(t *testing.T) {
	const (
		n     = 1000
		gap   = time.Millisecond
		end   = n * gap
		limit = 50 * time.Millisecond
	)
	for _, tc := range []struct {
		name string
		wait func(i int) time.Duration
		want bool
	}{
		{"keeps up", func(int) time.Duration { return time.Millisecond }, false},
		{"stall that drains", func(i int) time.Duration {
			if i >= 300 && i < 400 {
				return time.Duration(400-i) * gap
			}
			return time.Millisecond
		}, false},
		{"short stall at the end", func(i int) time.Duration {
			if i >= n-60 {
				return -1
			}
			return time.Millisecond
		}, false},
		// Served at half the offered rate: the wait grows with every request.
		{"overloaded", func(i int) time.Duration {
			if w := time.Duration(i) * gap; time.Duration(i)*gap+w < end {
				return w
			}
			return -1
		}, true},
	} {
		due, sent := served(n, gap, tc.wait)
		if got := backlogGrowing(due, sent, end, limit); got != tc.want {
			t.Errorf("%s: backlogGrowing = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestMedianLayers(t *testing.T) {
	got := medianLayers([]map[string]float64{{"a": 1, "b": 5}, {"a": 3}, {"a": 2}})
	if got["a"] != 2 || got["b"] != 5 {
		t.Errorf("medianLayers = %v", got)
	}
}

// TestBenchmarkJSONMatchesRegistry keeps BENCHMARK.json in step with the
// metrics and workloads the program reports.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("reading BENCHMARK.json: %v", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatalf("decoding BENCHMARK.json: %v", err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if want := workloadNames(); !slices.Equal(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, want)
	}
	if len(b.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, program %d", len(b.EndToEnd), len(endToEndMetrics))
	}
	var setupBound, maxBound float64
	for i, m := range b.EndToEnd {
		if d := endToEndMetrics[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, program %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
		maxBound = max(maxBound, m.Bound)
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxBound)
	}
	if len(b.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, program %d", len(b.PerLayer), len(perLayerMetrics))
	}
	for i, m := range b.PerLayer {
		if d := perLayerMetrics[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, program %+v", i, m, d)
		}
	}
}
