package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark reports it as a tail: fewer, and one stall decides the number.
const minBeyond = 10

// tailCandidates are the percentiles a tail is chosen from, highest first.
var tailCandidates = []float64{99.9, 99, 95, 90, 75, 50}

// quantile returns the q-th quantile (0..1) of xs by linear interpolation
// between order statistics. xs need not be sorted; it is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return sortedQuantile(s, q)
}

func sortedQuantile(s []float64, q float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	if math.IsInf(s[lo+1], 1) {
		if frac == 0 {
			return s[lo]
		}
		return math.Inf(1)
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// medianLayers takes, per metric name, the median over several samples of
// per-layer numbers.
func medianLayers(samples []map[string]float64) map[string]float64 {
	all := make(map[string][]float64)
	for _, s := range samples {
		for k, v := range s {
			all[k] = append(all[k], v)
		}
	}
	out := make(map[string]float64, len(all))
	for k, vs := range all {
		out[k] = median(vs)
	}
	return out
}

// beyond counts the samples of n that lie above the p-th percentile.
func beyond(n int, p float64) int {
	return int(math.Floor(float64(n)*(100-p)/100 + 1e-9))
}

// tailPercentile picks the highest candidate percentile with at least
// minBeyond of n samples above it. With too few samples for any candidate
// it returns 100: the tail is then the slowest sample, and the caller
// prints the sample count so the reader can see why.
func tailPercentile(n int) float64 {
	for _, p := range tailCandidates {
		if beyond(n, p) >= minBeyond {
			return p
		}
	}
	return 100
}

// tail returns the tail percentile chosen for xs and its value.
func tail(xs []float64) (p, v float64) {
	p = tailPercentile(len(xs))
	return p, quantile(xs, p/100)
}

// interval is one span's extent on the trace clock.
type interval struct{ start, end time.Duration }

// selfTime is a span's duration minus the part of it that its children
// cover. Children may overlap one another (parallel work) and may extend
// past the parent; only their union inside the parent is subtracted.
func selfTime(parent interval, children []interval) time.Duration {
	var cs []interval
	for _, c := range children {
		s, e := max(c.start, parent.start), min(c.end, parent.end)
		if e > s {
			cs = append(cs, interval{s, e})
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
	var covered time.Duration
	var cur interval
	for i, c := range cs {
		switch {
		case i == 0:
			cur = c
		case c.start <= cur.end:
			cur.end = max(cur.end, c.end)
		default:
			covered += cur.end - cur.start
			cur = c
		}
	}
	if len(cs) > 0 {
		covered += cur.end - cur.start
	}
	return parent.end - parent.start - covered
}

// step is one rate of the open-loop ladder, as measured.
type step struct {
	RateObsS  float64 // offered observation rate
	Unsent    int     // due requests still queued when the step ended
	Failed    int     // requests that returned an error
	P99Ms     float64 // write latency p99 from due time; misses count as +Inf
	Growing   bool    // backlog grew over the step
	AchievedS float64 // acknowledged observations per second of the step
	LateP99Ms float64 // generator lateness p99
}

// passes reports whether the step meets the latency limit with no failed
// request and no growing backlog.
func (s step) passes(limitMs float64) bool {
	return s.Failed == 0 && !s.Growing && s.P99Ms <= limitMs
}

// ladderVerdict walks the steps in ascending rate order and returns the
// index of the last step that passes before the first one that does not,
// or -1 when the lowest step already fails. Rates above a failing step
// are not credited even if they were run: a queue that did not drain
// leaks into the next step.
func ladderVerdict(steps []step, limitMs float64) int {
	best := -1
	for i, s := range steps {
		if !s.passes(limitMs) {
			break
		}
		best = i
	}
	return best
}

// backlogGrowing decides from a step's due and send times whether its
// backlog grew. The backlog at time t counts requests that were due more
// than limit before t and were still unsent at t: requests already late by
// more than the latency limit. The backlog at the step's end must exceed
// both that at its midpoint and a floor that absorbs the few requests a
// short stall leaves behind. Unsent requests have a send time of -1.
func backlogGrowing(due, sent []time.Duration, end, limit time.Duration) bool {
	at := func(t time.Duration) int {
		n := 0
		for i, d := range due {
			if d <= t-limit && (sent[i] < 0 || sent[i] > t) {
				n++
			}
		}
		return n
	}
	floor := max(4, len(due)/50)
	bEnd := at(end)
	return bEnd > floor && bEnd > at(end/2)
}
