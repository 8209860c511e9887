package main

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"tangledmass/internal/notarynet"
	"tangledmass/internal/tlsnet"
)

type opKind int

const (
	opWrite opKind = iota
	opRead
	opStats
)

// request is one scheduled request of a phase.
type request struct {
	kind   opKind
	due    time.Duration // from the phase start
	leaves []int         // pool indices: ingestBatch for a write, one for a read
}

// record is what happened to one request, on the phase's clock.
type record struct {
	enq, sent, done time.Duration // -1 until the request is queued, sent, done
	err             error
	recorded        bool // has_record's answer
}

func (r record) ok() bool { return r.sent >= 0 && r.err == nil }

// leafMix draws the leaves of the load's requests. Observation number k
// (counted over the whole run) is a first sighting when k is a multiple of
// newLeafEvery: it takes the next fresh leaf, in pool order, so it is new
// to the store however the run went. Every other observation repeats a
// prefed leaf drawn uniformly, as loadgen's in-order walk visits every
// leaf equally often. A has_record read asks about any pool leaf, so it
// meets prefed leaves, fresh leaves already observed and fresh leaves not
// yet seen.
type leafMix struct {
	rng          *rand.Rand
	known, fresh []int // pool indices of prefed and of fresh leaves
	obs, used    int   // observations drawn, fresh leaves used
}

func newLeafMix(seed int64, prefed []bool) *leafMix {
	m := &leafMix{rng: rand.New(rand.NewSource(seed))}
	for i, p := range prefed {
		if p {
			m.known = append(m.known, i)
		} else {
			m.fresh = append(m.fresh, i)
		}
	}
	return m
}

func (m *leafMix) observation() int {
	m.obs++
	if m.obs%newLeafEvery == 0 {
		m.used++
		return m.fresh[m.used-1]
	}
	return m.known[m.rng.Intn(len(m.known))]
}

func (m *leafMix) read() int { return m.rng.Intn(len(m.known) + len(m.fresh)) }

// dueTimes lays out a stream of perS requests a second over dur, offset by
// a share of one gap so that streams do not coincide.
func dueTimes(perS, offset float64, dur time.Duration) []time.Duration {
	var out []time.Duration
	gap := time.Duration(float64(time.Second) / perS)
	for t := time.Duration(offset * float64(gap)); t < dur; t += gap {
		out = append(out, t)
	}
	return out
}

// writesPerS is a rate's observe_batch request rate.
func writesPerS(rateObsS float64) float64 { return rateObsS / ingestBatch }

// schedule lays out one phase's requests at evenly spaced due times:
// observe_batch at rateObsS/ingestBatch per second, has_record at
// readsPerWrite times that and stats at statsPerS.
func (ph *phase) schedule(m *leafMix) {
	ph.reqs = nil
	used := m.used
	defer func() { ph.newObs = m.used - used }()
	for _, due := range dueTimes(writesPerS(ph.rateObsS), 0, ph.dur) {
		rq := request{kind: opWrite, due: due}
		for range ingestBatch {
			rq.leaves = append(rq.leaves, m.observation())
		}
		ph.reqs = append(ph.reqs, rq)
	}
	for _, due := range dueTimes(writesPerS(ph.rateObsS)*readsPerWrite, 0.5, ph.dur) {
		ph.reqs = append(ph.reqs, request{kind: opRead, due: due, leaves: []int{m.read()}})
	}
	for _, due := range dueTimes(statsPerS, 0.25, ph.dur) {
		ph.reqs = append(ph.reqs, request{kind: opStats, due: due})
	}
	sort.SliceStable(ph.reqs, func(i, j int) bool { return ph.reqs[i].due < ph.reqs[j].due })
}

// plan lays out the ladder for seconds of measurement: the reference rate
// first, for refShare of the time, then the other steps, which share what
// is left.
func plan(seconds float64) []*phase {
	total := time.Duration(seconds * float64(time.Second))
	refDur := time.Duration(refShare * float64(total))
	otherDur := (total - refDur) / time.Duration(len(ladderRatesObsS)-1)
	var run []*phase
	for i, rate := range ladderRatesObsS {
		ph := &phase{rateObsS: rate, dur: otherDur}
		if i == 0 {
			ph.dur = refDur
		}
		run = append(run, ph)
	}
	return run
}

// freshLeavesFor is how many fresh leaves a run of seconds draws.
func freshLeavesFor(seconds float64) int {
	obs := 0
	for _, ph := range plan(seconds) {
		obs += len(dueTimes(writesPerS(ph.rateObsS), 0, ph.dur)) * ingestBatch
	}
	return obs / newLeafEvery
}

// phase is one open-loop phase: a rate held for a duration.
type phase struct {
	rateObsS float64
	dur      time.Duration
	reqs     []request
	recs     []record
	newObs   int // scheduled observations of fresh leaves
}

// count is how many of the phase's requests are of kind k.
func (ph *phase) count(k opKind) int {
	n := 0
	for _, rq := range ph.reqs {
		if rq.kind == k {
			n++
		}
	}
	return n
}

// newShare is the share of the phase's scheduled observations that are
// first sightings.
func (ph *phase) newShare() float64 {
	return ratio(float64(ph.newObs), float64(ph.count(opWrite)*ingestBatch))
}

// openLoop sends a phase's requests on schedule over a fixed set of
// connections, whatever the server's pace.
type openLoop struct {
	pool    []tlsnet.Leaf
	clients []*notarynet.Client
}

func (l *openLoop) close() {
	for _, cl := range l.clients {
		_ = cl.Close()
	}
}

// run plays one phase. A generator goroutine queues each request at its
// due time; each connection's worker takes the oldest queued request.
// Requests still queued drainGrace after the phase's end are dropped
// unsent, so an overloaded step cannot run on unbounded.
func (l *openLoop) run(ctx context.Context, ph *phase) {
	ph.recs = make([]record, len(ph.reqs))
	for i := range ph.recs {
		ph.recs[i] = record{enq: -1, sent: -1, done: -1}
	}
	// One slot per scheduled request: the generator never blocks on a
	// slow server, which is what makes the loop open.
	queue := make(chan int, len(ph.reqs))
	cutoff := ph.dur + drainGrace
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(queue)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		for i, rq := range ph.reqs {
			if waitUntil(ctx, start.Add(rq.due)) != nil {
				return
			}
			ph.recs[i].enq = time.Since(start)
			queue <- i
		}
	}()
	for _, cl := range l.clients {
		wg.Add(1)
		go func(cl *notarynet.Client) {
			defer wg.Done()
			for i := range queue {
				rec := &ph.recs[i]
				now := time.Since(start)
				if now > cutoff {
					continue
				}
				rec.sent = now
				rec.recorded, rec.err = l.do(ctx, cl, ph.reqs[i])
				rec.done = time.Since(start)
			}
		}(cl)
	}
	wg.Wait()
}

func (l *openLoop) do(ctx context.Context, cl *notarynet.Client, rq request) (bool, error) {
	switch rq.kind {
	case opWrite:
		batch := make([]notarynet.ChainObservation, len(rq.leaves))
		for i, li := range rq.leaves {
			batch[i] = notarynet.ChainObservation{Chain: l.pool[li].Chain, Port: l.pool[li].Port}
		}
		return false, cl.ObserveBatch(ctx, batch)
	case opRead:
		return cl.HasRecord(ctx, l.pool[rq.leaves[0]].Chain[0])
	default:
		_, err := cl.Stats(ctx)
		return false, err
	}
}

// waitUntil blocks until t or until ctx is done. The generator calls it
// from a goroutine locked to its OS thread and sleeps in nanosleep: a
// runtime timer can wake up to a millisecond late, which the latency from
// due time would charge to the server, while a nanosleep wakes within
// about 0.1 ms. Sleeps are capped so cancellation is seen promptly.
func waitUntil(ctx context.Context, t time.Time) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		d := time.Until(t)
		if d <= 0 {
			return nil
		}
		ts := syscall.NsecToTimespec(int64(min(d, 100*time.Millisecond)))
		_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep just loops
	}
}

// phaseSummary condenses a played phase. Latencies run from due time.
type phaseSummary struct {
	writeMs, readMs, statsMs []float64
	queueWaitMs, rttMs       []float64 // writes
	lateMaxMs, lateP99Ms     float64
	sent, unsent, failed     int
	ackedObs, ackedWrites    int
	lastAck                  time.Duration // the last write acknowledgment
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func (ph *phase) summary() phaseSummary {
	var s phaseSummary
	var late []float64
	for i, rq := range ph.reqs {
		rec := ph.recs[i]
		if rec.enq >= 0 {
			late = append(late, ms(rec.enq-rq.due))
		}
		switch {
		case rec.sent < 0:
			s.unsent++
			continue
		case rec.err != nil:
			s.sent++
			s.failed++
			continue
		}
		s.sent++
		lat := ms(rec.done - rq.due)
		switch rq.kind {
		case opWrite:
			s.writeMs = append(s.writeMs, lat)
			s.queueWaitMs = append(s.queueWaitMs, ms(rec.sent-rq.due))
			s.rttMs = append(s.rttMs, ms(rec.done-rec.sent))
			s.ackedWrites++
			s.ackedObs += len(rq.leaves)
			s.lastAck = max(s.lastAck, rec.done)
		case opRead:
			s.readMs = append(s.readMs, lat)
		default:
			s.statsMs = append(s.statsMs, lat)
		}
	}
	if len(late) > 0 {
		s.lateP99Ms = quantile(late, 0.99)
		s.lateMaxMs = quantile(late, 1)
	}
	return s
}

// step judges the phase as a ladder step. Write requests that failed or
// were dropped unsent count as misses of any latency limit.
func (ph *phase) step() step {
	s := ph.summary()
	lat := append([]float64(nil), s.writeMs...)
	due := make([]time.Duration, len(ph.reqs))
	sent := make([]time.Duration, len(ph.reqs))
	for i, rq := range ph.reqs {
		due[i], sent[i] = rq.due, ph.recs[i].sent
		if rq.kind == opWrite && !ph.recs[i].ok() {
			lat = append(lat, math.Inf(1))
		}
	}
	return step{
		RateObsS:  ph.rateObsS,
		Unsent:    s.unsent,
		Failed:    s.failed,
		P99Ms:     quantile(lat, 0.99),
		Growing:   backlogGrowing(due, sent, ph.dur, latencyLimitMs*time.Millisecond),
		AchievedS: float64(s.ackedObs) / s.lastAck.Seconds(),
		LateP99Ms: s.lateP99Ms,
	}
}
