package wire

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

var errApply = errors.New("apply failed")

// TestWindow walks the idempotency window through its lifecycle cases.
// Each step sends one ID (or n distinct filler IDs) through Do and checks
// whether it was absorbed as a duplicate.
func TestWindow(t *testing.T) {
	type step struct {
		id      string
		fillers int  // send this many fresh IDs instead of id
		fail    bool // the application fails
		wantDup bool
	}
	cases := []struct {
		name  string
		steps []step
	}{
		{"dedupe", []step{
			{id: "a"},
			{id: "a", wantDup: true},
			{id: "b"},
			{id: "a", wantDup: true},
		}},
		{"forget then retry", []step{
			{id: "a", fail: true},
			{id: "a"},
			{id: "a", wantDup: true},
		}},
		{"retry keeps failing", []step{
			{id: "a", fail: true},
			{id: "a", fail: true},
			{id: "a"},
			{id: "a", wantDup: true},
		}},
		// The forgotten first mark must not age out the live second one.
		{"remark then seenCap-1 others", []step{
			{id: "a", fail: true},
			{id: "a"},
			{fillers: seenCap - 1},
			{id: "a", wantDup: true},
		}},
		{"eviction at the cap", []step{
			{id: "a"},
			{fillers: seenCap - 1},
			{id: "a", wantDup: true},
			{fillers: seenCap},
			{id: "a"},
		}},
		{"empty id never deduped", []step{
			{id: ""},
			{id: ""},
			{id: "", fail: true},
			{id: ""},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var w Window
			filler := 0
			for si, st := range tc.steps {
				if st.fillers > 0 {
					for k := 0; k < st.fillers; k++ {
						if dup, _ := w.Do(fmt.Sprintf("filler-%d", filler), func() error { return nil }); dup {
							t.Fatalf("step %d: fresh filler deduped", si)
						}
						filler++
					}
					continue
				}
				applied := false
				dup, err := w.Do(st.id, func() error {
					applied = true
					if st.fail {
						return errApply
					}
					return nil
				})
				if dup != st.wantDup || applied == st.wantDup {
					t.Fatalf("step %d (%q): dup=%v applied=%v, want dup=%v", si, st.id, dup, applied, st.wantDup)
				}
				if st.fail && !errors.Is(err, errApply) {
					t.Fatalf("step %d: err = %v, want the apply error", si, err)
				}
			}
		})
	}
}

// TestWindowDuplicateWaitsForInFlight: a duplicate arriving while the
// first application is still running must not be acknowledged early. It
// waits; after a commit it is absorbed, after a failure it applies the
// request itself.
func TestWindowDuplicateWaitsForInFlight(t *testing.T) {
	for _, firstFails := range []bool{false, true} {
		t.Run(fmt.Sprintf("firstFails=%v", firstFails), func(t *testing.T) {
			var w Window
			entered, release := make(chan struct{}), make(chan struct{})
			firstDone := make(chan error, 1)
			go func() {
				_, err := w.Do("id", func() error {
					close(entered)
					<-release
					if firstFails {
						return errApply
					}
					return nil
				})
				firstDone <- err
			}()
			<-entered

			type outcome struct{ dup, applied bool }
			second := make(chan outcome, 1)
			go func() {
				applied := false
				dup, _ := w.Do("id", func() error { applied = true; return nil })
				second <- outcome{dup, applied}
			}()
			select {
			case o := <-second:
				t.Fatalf("duplicate answered (%+v) while the first attempt was in flight", o)
			case <-time.After(50 * time.Millisecond):
			}
			close(release)
			<-firstDone
			o := <-second
			if firstFails && (o.dup || !o.applied) {
				t.Fatalf("after a failed first attempt: %+v, want the duplicate applied", o)
			}
			if !firstFails && (!o.dup || o.applied) {
				t.Fatalf("after a committed first attempt: %+v, want the duplicate absorbed", o)
			}
		})
	}
}

// TestWindowEvictedPendingCannotSettleNewClaim: an application that
// outlives its slot (seenCap newer IDs claimed meanwhile) must not mark or
// free whatever claim now occupies that slot.
func TestWindowEvictedPendingCannotSettleNewClaim(t *testing.T) {
	var w Window
	entered, release := make(chan struct{}), make(chan struct{})
	done := make(chan struct{})
	go func() {
		_, _ = w.Do("slow", func() error {
			close(entered)
			<-release
			return errApply
		})
		close(done)
	}()
	<-entered
	for k := 0; k < seenCap; k++ {
		if _, err := w.Do(fmt.Sprintf("f-%d", k), func() error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	close(release)
	<-done
	// The ring wrapped: the slow claim's slot now holds the last filler,
	// and the slow claim's failure must not have forgotten it.
	last := fmt.Sprintf("f-%d", seenCap-1)
	if dup, _ := w.Do(last, func() error { return nil }); !dup {
		t.Fatalf("%s was forgotten by an evicted claim's failure", last)
	}
}
