package analysis

import (
	"testing"
	"time"

	"tangledmass/internal/cauniverse"
	"tangledmass/internal/certgen"
	"tangledmass/internal/certid"
	"tangledmass/internal/chain"
	"tangledmass/internal/corpus"
	"tangledmass/internal/notary"
	"tangledmass/internal/obs"
	"tangledmass/internal/rootstore"
	"tangledmass/internal/tlsnet"
)

// edgeOracle replays the chain package's path search over one union pool
// without the corpus memo, recording every (child, parent) signature
// check the verifier makes along the way.
type edgeOracle struct {
	c       *corpus.Corpus
	at      time.Time
	verdict map[[2]corpus.Ref]bool // distinct edges examined → signature valid
	checks  int64                  // checks made, repeats included
}

func (o *edgeOracle) walk(stores []*rootstore.Store, cas, leaves []corpus.Ref) {
	// Mirror Notary.AttributeLeaves: roots are the union deduplicated by
	// identity (first instance wins), issuer candidates are the roots plus
	// every CA on record, indexed by subject and deduplicated by handle.
	roots := map[certid.Identity]bool{}
	bySubject := map[string][]corpus.Ref{}
	index := func(ref corpus.Ref) {
		k := string(o.c.Cert(ref).RawSubject)
		for _, have := range bySubject[k] {
			if have == ref {
				return
			}
		}
		bySubject[k] = append(bySubject[k], ref)
	}
	for _, cert := range rootstore.Union("union", stores...).Certificates() {
		ref := o.c.InternCert(cert)
		if id := o.c.Identity(ref); !roots[id] {
			roots[id] = true
			index(ref)
		}
	}
	for _, ref := range cas {
		index(ref)
	}
	timeValid := func(ref corpus.Ref) bool {
		c := o.c.Cert(ref)
		return !o.at.Before(c.NotBefore) && !o.at.After(c.NotAfter)
	}
	var extend func(path []corpus.Ref, visited map[certid.Identity]bool)
	extend = func(path []corpus.Ref, visited map[certid.Identity]bool) {
		tip := path[len(path)-1]
		if roots[o.c.Identity(tip)] || len(path) >= chain.DefaultMaxDepth {
			return
		}
		var issuers []corpus.Ref
		for _, cand := range bySubject[string(o.c.Cert(tip).RawIssuer)] {
			if !o.c.Cert(cand).IsCA {
				continue
			}
			o.checks++
			edge := [2]corpus.Ref{tip, cand}
			ok, seen := o.verdict[edge]
			if !seen {
				ok = o.c.Cert(tip).CheckSignatureFrom(o.c.Cert(cand)) == nil
				o.verdict[edge] = ok
			}
			if ok {
				issuers = append(issuers, cand)
			}
		}
		for _, issuer := range issuers {
			id := o.c.Identity(issuer)
			if visited[id] || !timeValid(issuer) {
				continue
			}
			visited[id] = true
			extend(append(path, issuer), visited)
			delete(visited, id)
		}
	}
	for _, leaf := range leaves {
		if timeValid(leaf) {
			extend([]corpus.Ref{leaf}, map[certid.Identity]bool{o.c.Identity(leaf): true})
		}
	}
}

// TestSignatureMemoReconciles checks the corpus.sig.* telemetry against an
// independent replay of path building: after Table 3 plus the Figure 3
// categories, the corpus has verified exactly the distinct edges examined
// and answered every other check from the memo; a second pass adds only
// hits. The notary's chain cache is off so both passes walk every leaf.
func TestSignatureMemoReconciles(t *testing.T) {
	p, _ := fixtures(t)
	u := p.Universe
	w, err := tlsnet.NewWorld(tlsnet.Config{Seed: 7, NumLeaves: 400, Universe: u})
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New()
	c := corpus.New(corpus.WithObserver(o))
	n := notary.New(certgen.Epoch, notary.WithCorpus(c), notary.WithChainCache(nil), notary.WithWorkers(2))
	tlsnet.Feed(w, n)

	// The corpus is private to the notary, so after the feed its CA
	// entries are exactly the notary's CAs on record.
	var cas []corpus.Ref
	for r := 1; r <= c.Len(); r++ {
		if c.Cert(corpus.Ref(r)).IsCA {
			cas = append(cas, corpus.Ref(r))
		}
	}
	storesOf := func(cats []Category) []*rootstore.Store {
		out := make([]*rootstore.Store, len(cats))
		for i, cat := range cats {
			out[i] = cat.Store
		}
		return out
	}
	table3 := []*rootstore.Store{u.Mozilla(), u.IOS7()}
	for _, v := range cauniverse.AOSPVersions() {
		table3 = append(table3, u.AOSP(v))
	}
	leaves := n.UnexpiredLeafRefs()
	oracle := &edgeOracle{c: c, at: certgen.Epoch, verdict: map[[2]corpus.Ref]bool{}}
	oracle.walk(table3, cas, leaves)
	oracle.walk(storesOf(Figure3Categories(u)), cas, leaves)

	eng := NewEngine(WithWorkers(2))
	pass := func() corpus.Stats {
		eng.Table3(n, u)
		eng.ValidateCategories(n, Figure3Categories(u))
		return c.Stats()
	}
	first := pass()
	if first.SigVerified != int64(len(oracle.verdict)) {
		t.Fatalf("verified %d signatures, oracle examined %d distinct edges", first.SigVerified, len(oracle.verdict))
	}
	if first.SigVerified+first.SigHits != oracle.checks {
		t.Fatalf("made %d signature checks, oracle made %d", first.SigVerified+first.SigHits, oracle.checks)
	}
	if first.SigHits == 0 {
		t.Fatal("the categories pass should reuse Table 3's edges")
	}

	second := pass()
	if second.SigVerified != first.SigVerified {
		t.Fatalf("second pass verified %d new signatures", second.SigVerified-first.SigVerified)
	}
	if second.SigHits-first.SigHits != oracle.checks {
		t.Fatalf("second pass took %d hits, want %d", second.SigHits-first.SigHits, oracle.checks)
	}
	snap := o.Snapshot()
	if snap.Counters[corpus.KeySigVerify] != second.SigVerified || snap.Counters[corpus.KeySigHit] != second.SigHits {
		t.Fatalf("corpus.sig counters %d/%d disagree with stats %+v",
			snap.Counters[corpus.KeySigVerify], snap.Counters[corpus.KeySigHit], second)
	}
}
