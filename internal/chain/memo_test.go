package chain

import (
	"testing"

	"tangledmass/internal/certgen"
	"tangledmass/internal/corpus"
)

// TestSecondVerifierReusesCorpusSignatures: a verifier over a different
// pool in the same corpus re-verifies no edge an earlier verifier checked.
func TestSecondVerifierReusesCorpusSignatures(t *testing.T) {
	p := buildPKI(t)
	c := corpus.New()
	first := NewVerifierIn(c, certs(p.rootA), certs(p.interA), certgen.Epoch)
	if !first.Validates(p.leafA.Cert) {
		t.Fatal("leafA should validate")
	}
	warm := c.Stats()
	if warm.SigVerified != 2 {
		t.Fatalf("first pass verified %d edges, want 2 (leaf→inter, inter→root)", warm.SigVerified)
	}

	second := NewVerifierIn(c, certs(p.rootA, p.rootB), certs(p.interA), certgen.Epoch)
	if second.PoolKey() == first.PoolKey() {
		t.Fatal("test needs two different pools")
	}
	if !second.Validates(p.leafA.Cert) {
		t.Fatal("leafA should validate in the second pool")
	}
	st := c.Stats()
	if st.SigVerified != warm.SigVerified {
		t.Fatalf("second verifier re-verified %d edges", st.SigVerified-warm.SigVerified)
	}
	if st.SigHits-warm.SigHits != 2 {
		t.Fatalf("second verifier took %d memo hits, want 2", st.SigHits-warm.SigHits)
	}
}

// TestRejectedEdgeStaysRejected: a same-subject CA under a different key
// is a rejected edge; the rejection is memoized and a later verifier that
// also trusts the genuine root answers it from the memo.
func TestRejectedEdgeStaysRejected(t *testing.T) {
	p := buildPKI(t)
	impostor, err := p.g.SelfSignedCA("Root A", certgen.WithKeyName("Root A impostor"))
	if err != nil {
		t.Fatal(err)
	}
	if string(impostor.Cert.RawSubject) != string(p.rootA.Cert.RawSubject) ||
		string(impostor.Cert.RawSubjectPublicKeyInfo) == string(p.rootA.Cert.RawSubjectPublicKeyInfo) {
		t.Fatal("impostor must share Root A's subject but not its key")
	}
	c := corpus.New()
	fooled := NewVerifierIn(c, certs(impostor), certs(p.interA), certgen.Epoch)
	if fooled.Validates(p.leafA.Cert) {
		t.Fatal("leafA must not validate against the impostor")
	}
	cold := c.Stats()
	if cold.SigVerified != 2 {
		t.Fatalf("verified %d edges, want 2 (leaf→inter, inter→impostor)", cold.SigVerified)
	}

	both := NewVerifierIn(c, certs(impostor, p.rootA), certs(p.interA), certgen.Epoch)
	chains := both.Chains(p.leafA.Cert)
	if len(chains) != 1 || chains[0][2] != p.rootA.Cert {
		t.Fatalf("want exactly one chain, via the genuine root; got %d", len(chains))
	}
	st := c.Stats()
	if st.SigVerified-cold.SigVerified != 1 {
		t.Fatalf("second verifier ran %d checks, want 1 (inter→genuine root)", st.SigVerified-cold.SigVerified)
	}
	if st.SigHits-cold.SigHits != 2 {
		t.Fatalf("second verifier took %d memo hits, want 2 (leaf→inter, inter→impostor)", st.SigHits-cold.SigHits)
	}
	if c.CheckSignature(c.InternCert(p.interA.Cert), c.InternCert(impostor.Cert)) {
		t.Fatal("memoized rejection flipped to acceptance")
	}
}
