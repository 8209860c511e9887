// Package notary reimplements the ICSI Certificate Notary substrate (§4.2):
// a passive database of certificates observed in live TLS traffic on any
// port, aggregated with first/last-seen times, plus the validation analyses
// the paper runs on it — per-store validation totals (Table 3), per-category
// zero-validation shares (Table 4), and per-root validation counts (the
// ECDF of Figure 3).
//
// The database is keyed by corpus.Ref: every observed chain is interned
// into a content-addressed corpus on ingest, so uniqueness-by-DER (§4.1's
// "certificate signature" identity) is a uint32 map key and no fingerprint
// is ever recomputed for a repeat observation.
package notary

import (
	"context"
	"crypto/x509"
	"fmt"
	"sort"
	"sync"
	"time"

	"tangledmass/internal/certid"
	"tangledmass/internal/chain"
	"tangledmass/internal/corpus"
	"tangledmass/internal/obs"
	"tangledmass/internal/parallel"
	"tangledmass/internal/rootstore"
)

// Observation is one certificate chain seen on the wire.
type Observation struct {
	// Chain is leaf-first, as presented by the server.
	Chain []*x509.Certificate
	// Port is the TCP port the session used.
	Port int
	// SeenAt is the observation instant; zero means the Notary's reference
	// time.
	SeenAt time.Time
}

// Entry is the Notary's record for one unique certificate (uniqueness by
// exact DER encoding, the "certificate signature" identity of §4.1).
type Entry struct {
	// Ref is the certificate's handle in the Notary's corpus.
	Ref  corpus.Ref
	Cert *x509.Certificate
	// SeenAsLeaf reports whether the certificate ever appeared in leaf
	// position.
	SeenAsLeaf bool
	// FromStore reports whether the certificate was imported from an
	// official root store rather than observed in traffic.
	FromStore bool
	// Sessions counts observations that included this certificate.
	Sessions int64
	// Ports is the set of ports the certificate was seen on.
	Ports map[int]int64
	// FirstSeen and LastSeen bound the observation window for this
	// certificate (zero for store-imported entries never seen in traffic).
	FirstSeen time.Time
	LastSeen  time.Time
}

// Notary is the certificate database. Construct with New; safe for
// concurrent Observe calls.
type Notary struct {
	at       time.Time
	observer *obs.Observer
	cache    *chain.Cache
	cacheSet bool // WithChainCache was applied (possibly with nil)
	workers  int
	c        *corpus.Corpus

	mu       sync.RWMutex
	entries  map[corpus.Ref]*Entry
	byID     map[certid.Identity]bool
	sessions int64
}

// Option configures a Notary at construction.
type Option func(*Notary)

// WithObserver instruments validation passes and batched ingest, and
// attaches the chain cache's hit/miss counters. Nil observers no-op.
func WithObserver(o *obs.Observer) Option {
	return func(n *Notary) { n.observer = o }
}

// WithChainCache replaces the default chain-validation cache. Pass nil to
// disable caching entirely (every lookup rebuilds chains) — the baseline
// the cache invariant tests compare against.
func WithChainCache(c *chain.Cache) Option {
	return func(n *Notary) { n.cache, n.cacheSet = c, true }
}

// WithWorkers bounds the validation and ingest fan-out. Values < 1 (the
// default) mean runtime.GOMAXPROCS.
func WithWorkers(w int) Option {
	return func(n *Notary) { n.workers = w }
}

// WithCorpus sets the intern table the database keys into (default: the
// process-wide shared corpus). Stores validated against this Notary should
// share the same corpus so handles can be reused without re-interning.
func WithCorpus(c *corpus.Corpus) Option {
	return func(n *Notary) { n.c = c }
}

// New returns an empty Notary that evaluates expiry at the instant at.
// By default validation outcomes are memoized in a chain.Cache sized
// chain.DefaultCacheCapacity; see WithChainCache.
func New(at time.Time, opts ...Option) *Notary {
	n := &Notary{
		at:      at,
		entries: make(map[corpus.Ref]*Entry),
		byID:    make(map[certid.Identity]bool),
	}
	for _, opt := range opts {
		opt(n)
	}
	if !n.cacheSet {
		n.cache = chain.NewCache(0, chain.WithCacheObserver(n.observer))
	}
	if n.c == nil {
		n.c = corpus.Shared()
	}
	return n
}

// CacheStats returns the chain-validation cache's cumulative hit/miss/
// eviction tallies (zeros when caching is disabled).
func (n *Notary) CacheStats() chain.CacheStats { return n.cache.Stats() }

// At returns the Notary's reference time.
func (n *Notary) At() time.Time { return n.at }

// Corpus returns the intern table the database's refs resolve against.
func (n *Notary) Corpus() *corpus.Corpus { return n.c }

// Observe records one live-traffic chain.
func (n *Notary) Observe(o Observation) {
	refs := n.c.InternChain(o.Chain)
	n.mu.Lock()
	defer n.mu.Unlock()
	n.observeLocked(o, refs)
}

// ObserveAll records a batch of chains in one pass. Interning every chain
// member — the CPU-bound part of ingest (a repeat observation is a pointer
// or content hit, a new certificate a parse plus fingerprints) — runs on
// the parallel engine; the database mutation is applied serially in input
// order under one lock acquisition, so the result is identical to calling
// Observe in a loop over the batch.
func (n *Notary) ObserveAll(batch []Observation) {
	n.observer.Counter(KeyIngestChains).Add(int64(len(batch)))
	// The error is ctx cancellation only; the background context never ends.
	refs, _ := parallel.Map(context.Background(), len(batch),
		func(_ context.Context, i int) ([]corpus.Ref, error) {
			return n.c.InternChain(batch[i].Chain), nil
		},
		parallel.WithWorkers(n.workers), parallel.WithObserver(n.observer))
	n.mu.Lock()
	defer n.mu.Unlock()
	for i, o := range batch {
		n.observeLocked(o, refs[i])
	}
}

// observeLocked applies one observation; refs carries the interned handle
// of every chain member. Caller holds mu.
func (n *Notary) observeLocked(o Observation, refs []corpus.Ref) {
	if len(o.Chain) == 0 {
		return
	}
	n.applyRefs(o, refs)
}

// applyRefs applies one observation given only interned handles — shared
// by live ingest and WAL replay, where chains arrive as refs without
// re-decoded x509 structs. Caller holds mu.
func (n *Notary) applyRefs(o Observation, refs []corpus.Ref) {
	if len(refs) == 0 {
		return
	}
	at := o.SeenAt
	if at.IsZero() {
		at = n.at
	}
	n.sessions++
	for i, ref := range refs {
		e := n.entryRef(ref)
		e.Sessions++
		e.Ports[o.Port]++
		e.touch(at)
		if i == 0 {
			e.SeenAsLeaf = true
		}
	}
}

// touch updates an entry's observation window.
func (e *Entry) touch(at time.Time) {
	if e.FirstSeen.IsZero() || at.Before(e.FirstSeen) {
		e.FirstSeen = at
	}
	if at.After(e.LastSeen) {
		e.LastSeen = at
	}
}

// ObserveCA records a CA certificate seen inside live traffic without leaf
// position — e.g. a root served as part of a chain, or gathered by a scan.
// The certificate becomes "recorded" (HasRecord) but is not a validation
// subject for the Table 3/4 counting, which runs over leaf certificates.
func (n *Notary) ObserveCA(cert *x509.Certificate, port int) {
	ref := n.c.InternCert(cert)
	n.mu.Lock()
	defer n.mu.Unlock()
	n.sessions++
	e := n.entryRef(ref)
	e.Sessions++
	e.Ports[port]++
	e.touch(n.at)
}

// ImportStore loads an official root store's certificates into the database
// without marking them as traffic (§4.2: the Notary also contains the
// certificates of the Android, iOS7 and Mozilla root stores). A store
// sharing the Notary's corpus imports by handle, with no re-interning.
func (n *Notary) ImportStore(s *rootstore.Store) {
	refs := s.Refs()
	if s.Corpus() != n.c {
		refs = n.c.InternChain(s.Certificates())
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, ref := range refs {
		n.entryRef(ref).FromStore = true
	}
}

// entryRef returns (creating if needed) the record for an interned
// certificate. Caller holds mu.
func (n *Notary) entryRef(ref corpus.Ref) *Entry {
	e, ok := n.entries[ref]
	if !ok {
		e = &Entry{Ref: ref, Cert: n.c.Cert(ref), Ports: make(map[int]int64)}
		n.entries[ref] = e
		n.byID[n.c.Identity(ref)] = true
	}
	return e
}

// Lookup returns a copy of the record for cert (matched by exact DER), or
// nil when the Notary has never stored that encoding.
func (n *Notary) Lookup(cert *x509.Certificate) *Entry {
	ref := n.c.InternCert(cert)
	n.mu.RLock()
	defer n.mu.RUnlock()
	e, ok := n.entries[ref]
	if !ok {
		return nil
	}
	cp := *e
	cp.Ports = make(map[int]int64, len(e.Ports))
	for p, c := range e.Ports {
		cp.Ports[p] = c
	}
	return &cp
}

// Sessions returns the number of observed TLS sessions.
func (n *Notary) Sessions() int64 {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.sessions
}

// NumUnique returns the number of unique certificates on record.
func (n *Notary) NumUnique() int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return len(n.entries)
}

// NumUnexpired returns how many recorded certificates are valid at the
// reference time (the paper's "one million have not expired").
func (n *Notary) NumUnexpired() int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	c := 0
	for _, e := range n.entries {
		if n.unexpired(e.Cert) {
			c++
		}
	}
	return c
}

func (n *Notary) unexpired(c *x509.Certificate) bool {
	return !n.at.Before(c.NotBefore) && !n.at.After(c.NotAfter)
}

// HasRecord reports whether the Notary knows the certificate — from traffic
// or store import — under the paper's identity (subject + key), so re-issued
// instances match.
func (n *Notary) HasRecord(cert *x509.Certificate) bool {
	id := n.c.Identity(n.c.InternCert(cert))
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.byID[id]
}

// UnexpiredLeafRefs returns the handles of non-expired certificates seen in
// leaf position, ordered by SHA-1 fingerprint for determinism (refs are
// interning-order-dependent and must never drive output order). This is the
// leaf universe Validate attributes; incremental consumers slice it into
// batches for AttributeLeaves.
func (n *Notary) UnexpiredLeafRefs() []corpus.Ref {
	n.mu.RLock()
	defer n.mu.RUnlock()
	refs := make([]corpus.Ref, 0, len(n.entries))
	for ref, e := range n.entries {
		if e.SeenAsLeaf && n.unexpired(e.Cert) {
			refs = append(refs, ref)
		}
	}
	sort.Slice(refs, func(i, j int) bool { return n.c.SHA1(refs[i]) < n.c.SHA1(refs[j]) })
	return refs
}

// observedCARefs returns the handles of CA certificates on record (traffic
// or import) — the intermediate pool for path building.
func (n *Notary) observedCARefs() []corpus.Ref {
	n.mu.RLock()
	defer n.mu.RUnlock()
	var out []corpus.Ref
	for ref, e := range n.entries {
		if e.Cert.IsCA {
			out = append(out, ref)
		}
	}
	return out
}

// PortCount is one row of the port distribution.
type PortCount struct {
	Port     int
	Sessions int64
}

// PortDistribution returns per-port observation counts, busiest first —
// quantifying §4.2's "certificates passively from live upstream traffic to
// any port".
func (n *Notary) PortDistribution() []PortCount {
	n.mu.RLock()
	agg := map[int]int64{}
	for _, e := range n.entries {
		if !e.SeenAsLeaf {
			continue
		}
		for p, c := range e.Ports {
			agg[p] += c
		}
	}
	n.mu.RUnlock()
	out := make([]PortCount, 0, len(agg))
	for p, c := range agg {
		out = append(out, PortCount{Port: p, Sessions: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Sessions != out[j].Sessions {
			return out[i].Sessions > out[j].Sessions
		}
		return out[i].Port < out[j].Port
	})
	return out
}

// StoreReport is the validation result for one root store.
type StoreReport struct {
	Store *rootstore.Store
	// Validated is how many non-expired Notary leaf certificates chain to
	// at least one root of the store (Table 3).
	Validated int
	// PerRoot maps every root identity in the store to the number of
	// Notary leaves it validates (zero entries included) — the sample
	// behind Figure 3's ECDFs.
	PerRoot map[certid.Identity]int
}

// ZeroValidationFraction returns the share of the store's roots that
// validate no Notary certificate (the Table 4 percentage and the Figure 3
// y-offset).
func (r *StoreReport) ZeroValidationFraction() float64 {
	if len(r.PerRoot) == 0 {
		return 0
	}
	z := 0
	for _, c := range r.PerRoot {
		if c == 0 {
			z++
		}
	}
	return float64(z) / float64(len(r.PerRoot))
}

// PerRootCounts returns the per-root validation counts as a float64 sample
// in deterministic order, ready for ECDF construction.
func (r *StoreReport) PerRootCounts() []float64 {
	ids := make([]certid.Identity, 0, len(r.PerRoot))
	for id := range r.PerRoot {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if ids[i].Subject != ids[j].Subject {
			return ids[i].Subject < ids[j].Subject
		}
		return ids[i].Key < ids[j].Key
	})
	out := make([]float64, len(ids))
	for i, id := range ids {
		out[i] = float64(r.PerRoot[id])
	}
	return out
}

// LeafAttribution records which root identities validate one Notary leaf —
// the unit Validate projects onto stores, exposed so incremental consumers
// (the analysis package's mergeable aggregates) can attribute leaves batch
// by batch.
type LeafAttribution struct {
	Leaf  corpus.Ref
	Roots []certid.Identity
}

// AttributeLeaves builds each leaf's chains against the union of the given
// stores' roots (plus every observed CA as intermediate) and reports, per
// leaf, the root identities validating it, in the order leaves were given.
//
// Path building is the expensive step (one ECDSA verification per new
// issuer edge); leaves are independent, so they fan across the parallel
// engine, answering repeated (pool, leaf) lookups from the chain cache.
// The verifier is safe for concurrent use: its indexes are read-only
// after construction, and signature checks go through the corpus's
// concurrency-safe per-edge memo, so a later call over a different union
// (Table 3, then the Figure 3 categories) re-verifies no edge an earlier
// call already checked.
func (n *Notary) AttributeLeaves(stores []*rootstore.Store, leaves []corpus.Ref) []LeafAttribution {
	union := rootstore.Union("union", stores...)
	cas := n.observedCARefs()
	var verifier *chain.Verifier
	if union.Corpus() == n.c {
		// Common case: stores and database share one corpus, so the
		// verifier is assembled from existing handles — no certificate is
		// re-interned or re-fingerprinted.
		verifier = chain.NewVerifierFromStore(union, cas, n.at)
	} else {
		verifier = chain.NewVerifierIn(n.c, union.Certificates(), n.c.Certs(cas), n.at)
	}

	span := n.observer.StartSpan(union.Name(), KeyValidateSpan)
	n.observer.Counter(KeyValidateLeaves).Add(int64(len(leaves)))
	// The error is ctx cancellation only; the background context never ends.
	out, _ := parallel.Map(context.Background(), len(leaves),
		func(_ context.Context, i int) (LeafAttribution, error) {
			return LeafAttribution{Leaf: leaves[i], Roots: n.cache.ValidatingRootsRef(verifier, leaves[i])}, nil
		},
		parallel.WithWorkers(n.workers), parallel.WithObserver(n.observer))
	span.End()
	return out
}

// Validate runs the paper's validation analysis for every store in one
// crypto pass: it builds each leaf's chains once against the union of all
// stores' roots (plus every observed CA as intermediate), attributes leaves
// to validating roots, then projects the attribution onto each store.
func (n *Notary) Validate(stores ...*rootstore.Store) []*StoreReport {
	attrs := n.AttributeLeaves(stores, n.UnexpiredLeafRefs())

	perRoot := map[certid.Identity]int{}
	for _, a := range attrs {
		for _, id := range a.Roots {
			perRoot[id]++
		}
	}

	reports := make([]*StoreReport, len(stores))
	for si, s := range stores {
		rep := &StoreReport{Store: s, PerRoot: make(map[certid.Identity]int, s.Len())}
		s.Each(func(id certid.Identity) { rep.PerRoot[id] = perRoot[id] })
		for _, a := range attrs {
			for _, id := range a.Roots {
				if s.ContainsIdentity(id) {
					rep.Validated++
					break
				}
			}
		}
		reports[si] = rep
	}
	return reports
}

// ValidateOne is Validate for a single store.
func (n *Notary) ValidateOne(s *rootstore.Store) *StoreReport {
	return n.Validate(s)[0]
}

// String summarizes the database.
func (n *Notary) String() string {
	return fmt.Sprintf("notary: %d unique certs (%d unexpired), %d sessions",
		n.NumUnique(), n.NumUnexpired(), n.Sessions())
}
