package main

import "time"

// tracer records spans around the benchmark's calls into each layer: name,
// start, end and the enclosing span, on one clock, kept in memory until the
// run reports. A disabled tracer records nothing, so the untraced run pays
// only for a branch per call. It is used from one goroutine.
type tracer struct {
	on    bool
	t0    time.Time
	spans []traceSpan
	open  []int
}

type traceSpan struct {
	name   string
	parent int // index into spans, -1 for a root
	iv     interval
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// begin opens a span nested in the innermost open one and returns its id.
func (t *tracer) begin(name string) int {
	if !t.on {
		return -1
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, traceSpan{name: name, parent: parent, iv: interval{start: time.Since(t.t0)}})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	t.spans[id].iv.end = time.Since(t.t0)
	t.open = t.open[:len(t.open)-1]
}

// run wraps fn in a span.
func (t *tracer) run(name string, fn func()) {
	id := t.begin(name)
	fn()
	t.end(id)
}

// totals sums each span name's full duration, in seconds.
func (t *tracer) totals() map[string]float64 {
	out := make(map[string]float64)
	for _, s := range t.spans {
		out[s.name] += (s.iv.end - s.iv.start).Seconds()
	}
	return out
}

// covered is the time, in seconds, that spans below the roots account for:
// the sum of every non-root span's self time.
func (t *tracer) covered() float64 {
	var sum float64
	for i, self := range t.selfByIndex() {
		if t.spans[i].parent >= 0 {
			sum += self
		}
	}
	return sum
}

// selfByIndex returns every span's self time, in seconds, by span id.
func (t *tracer) selfByIndex() []float64 {
	kids := make(map[int][]interval)
	for _, s := range t.spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], s.iv)
		}
	}
	out := make([]float64, len(t.spans))
	for i, s := range t.spans {
		out[i] = selfTime(s.iv, kids[i]).Seconds()
	}
	return out
}
