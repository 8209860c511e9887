package notary_test

import (
	"reflect"
	"sync"
	"testing"

	"tangledmass/internal/certgen"
	"tangledmass/internal/certid"
	"tangledmass/internal/corpus"
	"tangledmass/internal/notary"
	"tangledmass/internal/rootstore"
	"tangledmass/internal/tlsnet"
)

// TestConcurrentAttributionSharesCorpusMemo runs attribution passes over
// different unions concurrently against one corpus. Under -race this pins
// the corpus signature memo's locking; the assertions pin that sharing it
// changes no result and that every edge is still verified exactly once.
func TestConcurrentAttributionSharesCorpusMemo(t *testing.T) {
	w, err := tlsnet.NewWorld(tlsnet.Config{Seed: 3, NumLeaves: 300})
	if err != nil {
		t.Fatal(err)
	}
	u := w.Universe()
	unions := [][]*rootstore.Store{
		{u.AOSP("4.4"), u.Mozilla()},
		{u.IOS7(), u.AOSP("4.1")},
		{u.AggregatedAndroid()},
	}
	fresh := func() *notary.Notary {
		n := notary.New(certgen.Epoch, notary.WithCorpus(corpus.New()), notary.WithChainCache(nil), notary.WithWorkers(2))
		tlsnet.Feed(w, n)
		return n
	}
	roots := func(attrs []notary.LeafAttribution) [][]certid.Identity {
		out := make([][]certid.Identity, len(attrs))
		for i, a := range attrs {
			out[i] = a.Roots
		}
		return out
	}

	serial := fresh()
	want := make([][][]certid.Identity, len(unions))
	for i, stores := range unions {
		want[i] = roots(serial.AttributeLeaves(stores, serial.UnexpiredLeafRefs()))
	}

	shared := fresh()
	leaves := shared.UnexpiredLeafRefs()
	var wg sync.WaitGroup
	for rep := 0; rep < 2; rep++ {
		for i, stores := range unions {
			wg.Add(1)
			go func(i int, stores []*rootstore.Store) {
				defer wg.Done()
				if got := roots(shared.AttributeLeaves(stores, leaves)); !reflect.DeepEqual(got, want[i]) {
					t.Errorf("union %d: concurrent attribution differs from serial", i)
				}
			}(i, stores)
		}
	}
	wg.Wait()

	cold, hot := serial.Corpus().Stats(), shared.Corpus().Stats()
	if hot.SigVerified != cold.SigVerified {
		t.Fatalf("concurrent passes verified %d edges, serial %d: an edge ran twice or was skipped",
			hot.SigVerified, cold.SigVerified)
	}
	if hot.SigVerified+hot.SigHits != 2*(cold.SigVerified+cold.SigHits) {
		t.Fatalf("concurrent passes made %d checks, want twice the serial %d",
			hot.SigVerified+hot.SigHits, cold.SigVerified+cold.SigHits)
	}
}
