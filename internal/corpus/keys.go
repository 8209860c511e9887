package corpus

// Metric keys the intern table emits (see the registry in README.md).
// Package-prefixed compile-time constants, per the obskey lint rule.
const (
	// KeyInterned counts distinct certificates inserted into the table.
	KeyInterned = "corpus.interned"
	// KeyHits counts intern calls answered from the table without parsing.
	KeyHits = "corpus.hit"
	// KeyBytes accumulates the DER bytes owned by the table.
	KeyBytes = "corpus.bytes"
	// KeySigVerify counts signature checks run: one per distinct
	// (child, parent) edge examined.
	KeySigVerify = "corpus.sig.verify"
	// KeySigHit counts signature checks answered from the memo.
	KeySigHit = "corpus.sig.hit"
)
