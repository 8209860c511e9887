// Package corpus is the content-addressed certificate intern table: every
// certificate the system touches — root-store members, observed leaves,
// snapshot entries, wire-decoded chains — is parsed exactly once, its
// identity and fingerprints computed exactly once, and referenced everywhere
// else by a compact Ref handle.
//
// The paper's analyses (§4–§6) pool, compare and validate the same small
// universe of certificates across 41+ root stores and millions of simulated
// sessions. Before the corpus each layer held its own *x509.Certificate
// copies and recomputed identities and fingerprints behind scattered memo
// maps; the corpus centralizes that work behind one table so repeated
// observations of the same certificate cost a map hit.
//
// # Ownership and immutability
//
// An Entry is immutable after creation: the corpus owns the DER copy, the
// parsed certificate, and the precomputed identity and fingerprints, and
// none of them ever change. Intern copies its input before parsing, so
// callers may reuse or overwrite their buffers (the tap's record
// reassembly buffer, for example) without corrupting the table. A Ref is a
// plain uint32, trivially comparable and hashable, and — because entries
// are immutable and refs are never reused — safe to use as a map key and
// to share across goroutines without synchronization.
//
// Ref values are process-local and assigned in interning order; two runs
// interning in different orders number the same certificates differently.
// Never order output by Ref — sort by fingerprint or identity, as the
// deterministic layers do.
//
// # Signature memo
//
// CheckSignature verifies each (child, parent) signature edge at most once
// per corpus. Because a Ref pins content, the outcome is a pure function of
// the pair, so every chain verifier, pool and policy over the corpus
// shares one memo; it grows with the edges examined, as the table grows
// with the certificates interned.
package corpus

import (
	"bytes"
	"crypto/sha256"
	"crypto/x509"
	"encoding/hex"
	"encoding/pem"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"tangledmass/internal/certid"
	"tangledmass/internal/obs"
)

// Ref is a dense handle to one interned certificate. The zero Ref is
// invalid: valid handles start at 1, so a Ref's presence can be tested
// against zero without an ok-bool.
type Ref uint32

// Digest is the SHA-256 of a certificate's DER encoding — the content
// address the table is keyed by.
type Digest [sha256.Size]byte

// Hex renders the digest as lowercase hex.
func (d Digest) Hex() string { return hex.EncodeToString(d[:]) }

// XOR folds o into d in place. XOR of member digests is an incremental,
// order-independent set fingerprint: adding a member XORs its digest in,
// removing XORs it back out. rootstore and chain use it to derive pool
// keys without re-sorting and re-hashing whole membership lists.
func (d *Digest) XOR(o Digest) {
	for i := range d {
		d[i] ^= o[i]
	}
}

// Entry carries everything computed for one interned certificate. All
// fields are immutable after creation; callers must not modify DER, Cert,
// or any other field.
type Entry struct {
	// Ref is the entry's handle in its corpus.
	Ref Ref
	// DER is the corpus-owned copy of the certificate encoding.
	DER []byte
	// Cert is the parsed certificate.
	Cert *x509.Certificate
	// Identity is the paper's certificate identity (subject + key).
	Identity certid.Identity
	// SHA1, SHA256 and MD5 are hex fingerprints of the DER encoding.
	SHA1   string
	SHA256 string
	MD5    string
	// SubjectHash is the 32-bit OpenSSL-style subject hash used in Android
	// cacerts file names.
	SubjectHash uint32
	// Digest is the raw SHA-256 content address.
	Digest Digest
}

// Corpus is a concurrency-safe intern table. Construct with New, or use
// the process-wide Shared table. The zero value is not usable.
type Corpus struct {
	id     uint64
	mu     sync.RWMutex
	byHash map[Digest]Ref
	// entries is the published prefix of the append-only entry table.
	// Writers append under mu (into spare capacity when there is some) and
	// store the longer header; readers index only below the length they
	// loaded, which no writer ever touches again, so reads need no lock.
	entries atomic.Pointer[[]*Entry]
	byPtr   sync.Map // *x509.Certificate → Ref, the repeat-observation fast path

	// sigs memoizes signature checks by (child, parent) edge; see
	// CheckSignature.
	sigMu sync.Mutex
	sigs  map[sigEdge]*sigResult

	nInterned    atomic.Int64
	nHits        atomic.Int64
	nBytes       atomic.Int64
	nSigVerified atomic.Int64
	nSigHits     atomic.Int64

	interned    *obs.Counter
	hits        *obs.Counter
	bytesC      *obs.Counter
	sigVerified *obs.Counter
	sigHits     *obs.Counter
}

// Option configures a Corpus at construction.
type Option func(*Corpus)

// WithObserver attaches the corpus.* counters (interned certificates,
// intern hits, interned DER bytes, signature verifications and signature
// memo hits) to the given observer. Nil observers no-op.
func WithObserver(o *obs.Observer) Option {
	return func(c *Corpus) {
		c.interned = o.Counter(KeyInterned)
		c.hits = o.Counter(KeyHits)
		c.bytesC = o.Counter(KeyBytes)
		c.sigVerified = o.Counter(KeySigVerify)
		c.sigHits = o.Counter(KeySigHit)
	}
}

// nextID hands out process-unique corpus identifiers.
var nextID atomic.Uint64

// New returns an empty corpus.
func New(opts ...Option) *Corpus {
	c := &Corpus{id: nextID.Add(1), byHash: make(map[Digest]Ref), sigs: make(map[sigEdge]*sigResult)}
	empty := make([]*Entry, 0)
	c.entries.Store(&empty)
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// shared is the process-wide default table. Layers that are not handed an
// explicit corpus intern here, which is what makes one certificate parsed
// by the tap, the wire protocol and a snapshot load land on the same Entry.
var shared = New()

// Shared returns the process-wide corpus.
func Shared() *Corpus { return shared }

// Intern returns the handle for der, parsing and inserting it when the
// content is new. The input is copied before parsing; callers keep
// ownership of der.
func (c *Corpus) Intern(der []byte) (Ref, error) {
	sum := Digest(sha256.Sum256(der))
	c.mu.RLock()
	ref, ok := c.byHash[sum]
	c.mu.RUnlock()
	if ok {
		c.hit()
		return ref, nil
	}
	own := bytes.Clone(der)
	cert, err := x509.ParseCertificate(own)
	if err != nil {
		return 0, fmt.Errorf("corpus: parsing certificate: %w", err)
	}
	return c.insert(sum, own, cert), nil
}

// InternCert returns the handle for an already-parsed certificate. A
// repeated pointer is a lock-free map hit; new content adopts cert as the
// entry's parsed form (certificates are immutable values throughout the
// system), with the DER copied so the entry owns its encoding.
func (c *Corpus) InternCert(cert *x509.Certificate) Ref {
	if v, ok := c.byPtr.Load(cert); ok {
		c.hit()
		return v.(Ref)
	}
	sum := Digest(sha256.Sum256(cert.Raw))
	c.mu.RLock()
	ref, ok := c.byHash[sum]
	c.mu.RUnlock()
	if ok {
		c.hit()
	} else {
		ref = c.insert(sum, bytes.Clone(cert.Raw), cert)
	}
	c.byPtr.Store(cert, ref)
	return ref
}

// InternChain interns every certificate of a chain, preserving order.
func (c *Corpus) InternChain(chain []*x509.Certificate) []Ref {
	refs := make([]Ref, len(chain))
	for i, cert := range chain {
		refs[i] = c.InternCert(cert)
	}
	return refs
}

// InternAll interns a batch of encodings in one table transaction. Digests
// are checked against the table first, only genuinely new content is
// parsed, and every new entry is appended under one lock hold. This is the
// bulk path for loaders that materialize a whole deduplicated DER table at
// once (dataset columnar files, notary snapshots).
func (c *Corpus) InternAll(ders [][]byte) ([]Ref, error) {
	refs := make([]Ref, len(ders))
	sums := make([]Digest, len(ders))
	var miss []int
	c.mu.RLock()
	for i, der := range ders {
		sums[i] = Digest(sha256.Sum256(der))
		if ref, ok := c.byHash[sums[i]]; ok {
			refs[i] = ref
		} else {
			miss = append(miss, i)
		}
	}
	c.mu.RUnlock()
	if hits := int64(len(ders) - len(miss)); hits > 0 {
		c.nHits.Add(hits)
		c.hits.Add(hits)
	}
	if len(miss) == 0 {
		return refs, nil
	}

	// Parse the misses outside the lock; duplicate digests within the batch
	// are resolved under the lock below (the first instance wins).
	owned := make([][]byte, len(miss))
	certs := make([]*x509.Certificate, len(miss))
	for k, i := range miss {
		owned[k] = bytes.Clone(ders[i])
		cert, err := x509.ParseCertificate(owned[k])
		if err != nil {
			return nil, fmt.Errorf("corpus: parsing certificate %d of batch: %w", i, err)
		}
		certs[k] = cert
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	entries := slices.Grow(*c.entries.Load(), len(miss))
	for k, i := range miss {
		if ref, ok := c.byHash[sums[i]]; ok {
			// Inserted by a concurrent intern or an earlier batch duplicate.
			refs[i] = ref
			c.hit()
			continue
		}
		entries = c.appendLocked(entries, sums[i], owned[k], certs[k])
		refs[i] = Ref(len(entries))
	}
	c.entries.Store(&entries)
	return refs, nil
}

// insert adds a new entry under sum, resolving the insert race in favour
// of the first writer.
func (c *Corpus) insert(sum Digest, der []byte, cert *x509.Certificate) Ref {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ref, ok := c.byHash[sum]; ok {
		c.hit()
		return ref
	}
	entries := c.appendLocked(*c.entries.Load(), sum, der, cert)
	c.entries.Store(&entries)
	return Ref(len(entries))
}

// appendLocked appends a new entry to entries and indexes it, returning
// the longer slice for the caller to publish. append writes only past the
// published length, so concurrent readers of the old header are
// unaffected. Callers hold c.mu.
func (c *Corpus) appendLocked(entries []*Entry, sum Digest, der []byte, cert *x509.Certificate) []*Entry {
	e := &Entry{
		Ref:         Ref(len(entries) + 1),
		DER:         der,
		Cert:        cert,
		Identity:    certid.Identity{Subject: certid.SubjectString(cert), Key: certid.KeyIdentity(cert)},
		SHA1:        certid.SHA1Fingerprint(cert),
		SHA256:      sum.Hex(),
		MD5:         certid.MD5Fingerprint(cert),
		SubjectHash: certid.SubjectHash32(cert),
		Digest:      sum,
	}
	c.byHash[sum] = e.Ref
	c.nInterned.Add(1)
	c.nBytes.Add(int64(len(der)))
	c.interned.Inc()
	c.bytesC.Add(int64(len(der)))
	return append(entries, e)
}

func (c *Corpus) hit() {
	c.nHits.Add(1)
	c.hits.Inc()
}

// ID returns a process-unique identifier for this corpus. Refs are only
// meaningful relative to the corpus that issued them; cache keys that embed
// a Ref include the corpus ID so handles from different tables cannot
// collide.
func (c *Corpus) ID() uint64 { return c.id }

// Entry returns the entry for r, or nil for the zero Ref or a handle from
// another corpus.
func (c *Corpus) Entry(r Ref) *Entry {
	entries := *c.entries.Load()
	if r == 0 || int(r) > len(entries) {
		return nil
	}
	return entries[r-1]
}

// Cert returns the parsed certificate for r, or nil.
func (c *Corpus) Cert(r Ref) *x509.Certificate {
	if e := c.Entry(r); e != nil {
		return e.Cert
	}
	return nil
}

// Identity returns the precomputed identity for r (zero for invalid refs).
func (c *Corpus) Identity(r Ref) certid.Identity {
	if e := c.Entry(r); e != nil {
		return e.Identity
	}
	return certid.Identity{}
}

// SHA1 returns the precomputed hex SHA-1 fingerprint for r ("" for
// invalid refs).
func (c *Corpus) SHA1(r Ref) string {
	if e := c.Entry(r); e != nil {
		return e.SHA1
	}
	return ""
}

// DER returns the corpus-owned encoding for r (nil for invalid refs).
// Callers must not modify it.
func (c *Corpus) DER(r Ref) []byte {
	if e := c.Entry(r); e != nil {
		return e.DER
	}
	return nil
}

// Certs materializes the parsed certificates for refs, preserving order.
func (c *Corpus) Certs(refs []Ref) []*x509.Certificate {
	out := make([]*x509.Certificate, len(refs))
	for i, r := range refs {
		out[i] = c.Cert(r)
	}
	return out
}

// sigEdge is one (child, parent) signature check.
type sigEdge struct{ child, parent Ref }

// sigResult is one memoized edge outcome. once makes the verification run
// at most once even when goroutines race to examine a new edge.
type sigResult struct {
	once sync.Once
	ok   bool
}

// CheckSignature reports whether parent's key verifies child's signature
// (x509.Certificate.CheckSignatureFrom), running the check at most once per
// (child, parent) pair in this corpus; acceptances and rejections are both
// memoized. The outcome depends only on the two certificates' bytes, which
// a Ref pins, so every verifier, pool and policy over the corpus can share
// it. Refs from another corpus report false.
func (c *Corpus) CheckSignature(child, parent Ref) bool {
	cc, pc := c.Cert(child), c.Cert(parent)
	if cc == nil || pc == nil {
		return false
	}
	k := sigEdge{child, parent}
	c.sigMu.Lock()
	r := c.sigs[k]
	if r == nil {
		r = new(sigResult)
		c.sigs[k] = r
	}
	c.sigMu.Unlock()
	verified := false
	r.once.Do(func() {
		r.ok = cc.CheckSignatureFrom(pc) == nil
		verified = true
	})
	if verified {
		c.nSigVerified.Add(1)
		c.sigVerified.Inc()
	} else {
		c.nSigHits.Add(1)
		c.sigHits.Inc()
	}
	return r.ok
}

// Len returns the number of distinct certificates interned.
func (c *Corpus) Len() int { return len(*c.entries.Load()) }

// Stats is a point-in-time interning tally.
type Stats struct {
	// Interned is the number of distinct certificates in the table.
	Interned int64
	// Hits counts intern calls answered without parsing (pointer or
	// content match).
	Hits int64
	// Bytes is the total DER bytes owned by the table.
	Bytes int64
	// SigVerified counts signature checks CheckSignature actually ran: one
	// per distinct (child, parent) edge examined.
	SigVerified int64
	// SigHits counts CheckSignature calls answered from the memo.
	SigHits int64
}

// Stats returns the cumulative tallies.
func (c *Corpus) Stats() Stats {
	return Stats{
		Interned:    c.nInterned.Load(),
		Hits:        c.nHits.Load(),
		Bytes:       c.nBytes.Load(),
		SigVerified: c.nSigVerified.Load(),
		SigHits:     c.nSigHits.Load(),
	}
}

const pemCertType = "CERTIFICATE"

// ParsePEM interns every CERTIFICATE block in data, in order. Non-certificate
// blocks are skipped; a block that fails to parse is an error.
func (c *Corpus) ParsePEM(data []byte) ([]Ref, error) {
	var refs []Ref
	for {
		var block *pem.Block
		block, data = pem.Decode(data)
		if block == nil {
			break
		}
		if block.Type != pemCertType {
			continue
		}
		ref, err := c.Intern(block.Bytes)
		if err != nil {
			return nil, err
		}
		refs = append(refs, ref)
	}
	return refs, nil
}

// Intern interns der into the shared corpus.
func Intern(der []byte) (Ref, error) { return shared.Intern(der) }

// InternCert interns an already-parsed certificate into the shared corpus.
func InternCert(cert *x509.Certificate) Ref { return shared.InternCert(cert) }

// ParsePEM interns a PEM bundle into the shared corpus.
func ParsePEM(data []byte) ([]Ref, error) { return shared.ParsePEM(data) }

// CertOf returns the shared-corpus certificate for r.
func CertOf(r Ref) *x509.Certificate { return shared.Cert(r) }

// IdentityOf returns cert's identity through the shared corpus — the
// memoized replacement for certid.IdentityOf on hot paths: the identity is
// computed once when the certificate is first interned and every later
// call is a map hit.
func IdentityOf(cert *x509.Certificate) certid.Identity {
	return shared.Identity(shared.InternCert(cert))
}

// SHA1Of returns cert's hex SHA-1 fingerprint through the shared corpus.
func SHA1Of(cert *x509.Certificate) string {
	return shared.SHA1(shared.InternCert(cert))
}

// SHA256Of returns cert's hex SHA-256 fingerprint through the shared corpus.
func SHA256Of(cert *x509.Certificate) string {
	if e := shared.Entry(shared.InternCert(cert)); e != nil {
		return e.SHA256
	}
	return ""
}

// Equivalent reports whether two certificates are equivalent in the
// paper's sense (same subject and key), answered from interned identities.
func Equivalent(a, b *x509.Certificate) bool {
	return IdentityOf(a) == IdentityOf(b)
}
