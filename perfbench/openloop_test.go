package main

import (
	"testing"
	"time"
)

func TestPlanRunsReferenceRateFirstAndLongest(t *testing.T) {
	run := plan(20)
	if len(run) != len(ladderRatesObsS) {
		t.Fatalf("plan has %d phases, want %d", len(run), len(ladderRatesObsS))
	}
	var total time.Duration
	for i, ph := range run {
		total += ph.dur
		if i > 0 && ph.rateObsS <= run[i-1].rateObsS {
			t.Errorf("phase %d offers %v obs/s after %v: the ladder must climb", i, ph.rateObsS, run[i-1].rateObsS)
		}
		if i > 0 && ph.dur >= run[0].dur {
			t.Errorf("phase %d lasts %v, not shorter than the reference rate's %v", i, ph.dur, run[0].dur)
		}
	}
	if want := 20 * time.Second; total < want-time.Millisecond || total > want {
		t.Errorf("phases last %v in all, want %v", total, want)
	}
}

// TestLeafMixDrawsStatedShareOfFreshLeaves checks that a whole run's
// schedule offers exactly one first sighting in newLeafEvery observations,
// each fresh leaf once, and that the fresh leaves set up for the run
// suffice.
func TestLeafMixDrawsStatedShareOfFreshLeaves(t *testing.T) {
	const seconds = 20
	fresh := freshLeavesFor(seconds)
	prefed := make([]bool, prefedLeaves+fresh)
	for i := range prefedLeaves {
		prefed[i] = true
	}
	m := newLeafMix(1, prefed)
	seen := map[int]bool{}
	for _, ph := range plan(seconds) {
		ph.schedule(m)
		obs, newObs := 0, 0
		for _, rq := range ph.reqs {
			if rq.kind != opWrite {
				continue
			}
			for _, li := range rq.leaves {
				obs++
				if prefed[li] {
					continue
				}
				newObs++
				if seen[li] {
					t.Fatalf("fresh leaf %d observed twice", li)
				}
				seen[li] = true
			}
		}
		if newObs != ph.newObs {
			t.Errorf("%v obs/s: %d fresh observations, phase counted %d", ph.rateObsS, newObs, ph.newObs)
		}
		if want := obs / newLeafEvery; newObs < want || newObs > want+1 {
			t.Errorf("%v obs/s: %d of %d observations fresh, want %d", ph.rateObsS, newObs, obs, want)
		}
		if got, want := ph.count(opRead), ph.count(opWrite)*readsPerWrite; got < want-1 || got > want {
			t.Errorf("%v obs/s: %d reads for %d writes", ph.rateObsS, got, ph.count(opWrite))
		}
	}
	if m.obs/newLeafEvery != m.used || m.used != fresh {
		t.Errorf("run drew %d fresh leaves of %d set up, for %d observations", m.used, fresh, m.obs)
	}
}
