package corpus_test

import (
	"crypto/sha256"
	"crypto/x509"
	"sync"
	"testing"

	"tangledmass/internal/certgen"
	"tangledmass/internal/corpus"
	"tangledmass/internal/obs"
)

// impostorRoot issues a CA with the genCerts root's subject under a
// different key: it is a subject-matching issuer candidate for every
// genCerts leaf whose signature it cannot verify.
func impostorRoot(t *testing.T) *x509.Certificate {
	t.Helper()
	ca, err := certgen.NewGenerator(101).SelfSignedCA("Corpus Test Root", certgen.WithKeyName("corpus-test-impostor"))
	if err != nil {
		t.Fatal(err)
	}
	return ca.Cert
}

func TestCheckSignatureMemoizesBothOutcomes(t *testing.T) {
	o := obs.New()
	c := corpus.New(corpus.WithObserver(o))
	certs := genCerts(t, 100, 2)
	impostor := impostorRoot(t)
	if string(impostor.RawSubject) != string(certs[0].RawSubject) {
		t.Fatal("impostor must share the root's subject")
	}
	root, leaf, bad := c.InternCert(certs[0]), c.InternCert(certs[1]), c.InternCert(impostor)

	for i := 0; i < 3; i++ {
		if !c.CheckSignature(leaf, root) {
			t.Fatalf("pass %d: genuine edge rejected", i)
		}
		if c.CheckSignature(leaf, bad) {
			t.Fatalf("pass %d: impostor edge accepted", i)
		}
	}
	st := c.Stats()
	if st.SigVerified != 2 || st.SigHits != 4 {
		t.Fatalf("stats = %+v, want 2 verified (one per edge) / 4 hits", st)
	}
	snap := o.Snapshot()
	if snap.Counters[corpus.KeySigVerify] != st.SigVerified || snap.Counters[corpus.KeySigHit] != st.SigHits {
		t.Fatalf("counters %d/%d disagree with stats %+v",
			snap.Counters[corpus.KeySigVerify], snap.Counters[corpus.KeySigHit], st)
	}

	// Invalid handles are rejected without touching the memo.
	if c.CheckSignature(0, root) || c.CheckSignature(leaf, corpus.Ref(c.Len()+1)) {
		t.Fatal("invalid refs must not verify")
	}
	if after := c.Stats(); after.SigVerified != st.SigVerified || after.SigHits != st.SigHits {
		t.Fatalf("invalid refs moved the tallies: %+v", after)
	}
}

// TestCheckSignatureRunsOncePerEdge: goroutines racing on one new edge
// run the signature check exactly once between them.
func TestCheckSignatureRunsOncePerEdge(t *testing.T) {
	c := corpus.New()
	certs := genCerts(t, 100, 2)
	root, leaf := c.InternCert(certs[0]), c.InternCert(certs[1])
	const goroutines = 16
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if !c.CheckSignature(leaf, root) {
				t.Error("genuine edge rejected")
			}
		}()
	}
	wg.Wait()
	if st := c.Stats(); st.SigVerified != 1 || st.SigHits != goroutines-1 {
		t.Fatalf("stats = %+v, want 1 verified / %d hits", st, goroutines-1)
	}
}

func TestCorporaShareNoEntries(t *testing.T) {
	certs := genCerts(t, 100, 2)
	a, b := corpus.New(), corpus.New()
	if a.ID() == b.ID() {
		t.Fatal("corpora share an ID")
	}
	aRoot, aLeaf := a.InternCert(certs[0]), a.InternCert(certs[1])
	bRoot, bLeaf := b.InternCert(certs[0]), b.InternCert(certs[1])
	if a.Entry(aRoot) == b.Entry(bRoot) || a.Entry(aLeaf) == b.Entry(bLeaf) {
		t.Fatal("corpora share an entry")
	}
	a.CheckSignature(aLeaf, aRoot)
	if st := b.Stats(); st.SigVerified != 0 || st.SigHits != 0 {
		t.Fatalf("a's check leaked into b: %+v", st)
	}
	if !b.CheckSignature(bLeaf, bRoot) {
		t.Fatal("genuine edge rejected")
	}
	if st := b.Stats(); st.SigVerified != 1 || st.SigHits != 0 {
		t.Fatalf("b answered from a's memo: %+v", st)
	}
}

// TestReadersSeeConsistentPrefix interns certificates one by one and in
// batches while readers resolve every ref below the length they loaded.
// Under -race this pins the append-in-place publication; the assertions
// pin that a published entry never changes.
func TestReadersSeeConsistentPrefix(t *testing.T) {
	c := corpus.New()
	certs := genCerts(t, 102, 48)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			seen := map[corpus.Ref]*corpus.Entry{}
			for {
				select {
				case <-done:
					return
				default:
				}
				n := c.Len()
				for i := 1; i <= n; i++ {
					ref := corpus.Ref(i)
					e := c.Entry(ref)
					if e == nil || e.Ref != ref || c.Cert(ref) != e.Cert {
						t.Errorf("ref %d of published prefix %d resolves to %+v", ref, n, e)
						return
					}
					if prev, ok := seen[ref]; ok && prev != e {
						t.Errorf("ref %d changed entries", ref)
						return
					}
					seen[ref] = e
					if e.Digest != corpus.Digest(sha256.Sum256(e.DER)) {
						t.Errorf("ref %d: digest does not match its DER", ref)
						return
					}
				}
			}
		}()
	}
	for i := 0; i < len(certs); {
		if i%3 == 0 && i+4 <= len(certs) {
			batch := make([][]byte, 4)
			for k := range batch {
				batch[k] = certs[i+k].Raw
			}
			if _, err := c.InternAll(batch); err != nil {
				t.Error(err)
			}
			i += 4
			continue
		}
		c.InternCert(certs[i])
		i++
	}
	close(done)
	wg.Wait()
	if c.Len() != len(certs) {
		t.Fatalf("len = %d, want %d", c.Len(), len(certs))
	}
}
