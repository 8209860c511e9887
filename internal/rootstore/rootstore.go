// Package rootstore models X.509 root certificate stores: ordered sets of
// trusted CA certificates with set operations defined over the paper's
// certificate equivalence (same subject + key) rather than byte equality.
//
// A Store corresponds to what the paper calls a "root store population":
// the AOSP store for a given Android version, Mozilla's store, iOS7's store,
// or the store observed on one device in the wild. It also reads and writes
// the on-disk format Android uses (/system/etc/security/cacerts: one PEM file
// per root named <subject-hash>.<n>).
//
// Membership is held as corpus.Ref handles into a content-addressed
// certificate corpus: the store never re-parses or re-fingerprints a
// certificate, and its pool content key is maintained incrementally on
// Add/Remove instead of re-sorting and re-hashing the whole pool.
//
// Clone is copy-on-write: a clone shares its source's membership until
// either of them is mutated, so stamping thousands of per-device stores
// out of a few prototypes costs no copying. Cloning one store from many
// goroutines at once is safe; mutating a store while another goroutine
// reads or clones it is not.
package rootstore

import (
	"crypto/x509"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strconv"
	"sync/atomic"

	"tangledmass/internal/certid"
	"tangledmass/internal/corpus"
)

// Store is a set of root certificates indexed by the paper's certificate
// identity. Insertion order is preserved for deterministic iteration. The
// zero value is not usable; construct with New or NewIn.
type Store struct {
	name  string
	c     *corpus.Corpus
	order []certid.Identity
	byID  map[certid.Identity]corpus.Ref
	// digest is the XOR of member content digests — an incremental,
	// order-independent fingerprint of the exact membership bytes,
	// updated on Add and Remove. chain derives its pool keys from it.
	digest corpus.Digest
	// shared is set by Clone on both the source and the clone: order and
	// byID may then be referenced by another store, so the first mutation
	// copies them. It is atomic because many goroutines clone one base.
	shared atomic.Bool
}

// New returns an empty store with the given name, interning into the
// process-wide shared corpus.
func New(name string) *Store { return NewIn(name, corpus.Shared()) }

// NewIn returns an empty store interning into the given corpus. Stores
// that are compared or pooled together should share one corpus.
func NewIn(name string, c *corpus.Corpus) *Store {
	return &Store{name: name, c: c, byID: make(map[certid.Identity]corpus.Ref)}
}

// NewSized is NewIn with capacity hints: the index map and insertion-order
// slice are pre-sized for n members, so bulk loaders (dataset readers,
// snapshot restores) pay one allocation per structure instead of a growth
// series.
func NewSized(name string, c *corpus.Corpus, n int) *Store {
	return &Store{
		name:  name,
		c:     c,
		byID:  make(map[certid.Identity]corpus.Ref, n),
		order: make([]certid.Identity, 0, n),
	}
}

// Name returns the store's name (e.g. "AOSP 4.4").
func (s *Store) Name() string { return s.name }

// Corpus returns the intern table the store's refs resolve against.
func (s *Store) Corpus() *corpus.Corpus { return s.c }

// Len returns the number of distinct (by identity) certificates.
func (s *Store) Len() int { return len(s.order) }

// Add inserts cert. It returns false if an equivalent certificate (same
// subject and key) is already present, in which case the store is unchanged:
// the first-seen instance wins, mirroring how a device's store keeps one
// file per root.
func (s *Store) Add(cert *x509.Certificate) bool {
	return s.AddRef(s.c.InternCert(cert))
}

// AddRef inserts an already-interned certificate by handle. The ref must
// come from the store's corpus.
func (s *Store) AddRef(ref corpus.Ref) bool {
	e := s.c.Entry(ref)
	if e == nil {
		return false
	}
	if _, ok := s.byID[e.Identity]; ok {
		return false
	}
	s.unshare()
	s.byID[e.Identity] = ref
	s.order = append(s.order, e.Identity)
	s.digest.XOR(e.Digest)
	return true
}

// AddAll inserts each certificate, returning how many were new.
func (s *Store) AddAll(certs []*x509.Certificate) int {
	n := 0
	for _, c := range certs {
		if s.Add(c) {
			n++
		}
	}
	return n
}

// Remove deletes the certificate with the given identity, returning whether
// it was present.
func (s *Store) Remove(id certid.Identity) bool {
	ref, ok := s.byID[id]
	if !ok {
		return false
	}
	s.unshare()
	delete(s.byID, id)
	for i, o := range s.order {
		if o == id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	s.digest.XOR(s.c.Entry(ref).Digest)
	return true
}

// Contains reports whether an equivalent certificate is present.
func (s *Store) Contains(cert *x509.Certificate) bool {
	_, ok := s.byID[s.c.Identity(s.c.InternCert(cert))]
	return ok
}

// ContainsIdentity reports whether the identity is present.
func (s *Store) ContainsIdentity(id certid.Identity) bool {
	_, ok := s.byID[id]
	return ok
}

// Get returns the stored certificate for id, or nil.
func (s *Store) Get(id certid.Identity) *x509.Certificate {
	if ref, ok := s.byID[id]; ok {
		return s.c.Cert(ref)
	}
	return nil
}

// Ref returns the corpus handle for id (zero when absent).
func (s *Store) Ref(id certid.Identity) corpus.Ref { return s.byID[id] }

// Refs returns the member handles in insertion order.
func (s *Store) Refs() []corpus.Ref {
	out := make([]corpus.Ref, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.byID[id])
	}
	return out
}

// Certificates returns the certificates in insertion order. The returned
// slice is freshly allocated; mutating it does not affect the store.
func (s *Store) Certificates() []*x509.Certificate {
	out := make([]*x509.Certificate, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.c.Cert(s.byID[id]))
	}
	return out
}

// Identities returns the identity set in insertion order.
func (s *Store) Identities() []certid.Identity {
	out := make([]certid.Identity, len(s.order))
	copy(out, s.order)
	return out
}

// Each calls fn for every identity in insertion order without allocating.
// fn must not mutate the store.
func (s *Store) Each(fn func(certid.Identity)) {
	for _, id := range s.order {
		fn(id)
	}
}

// ContentKey is an order-independent fingerprint of the exact membership
// bytes, maintained incrementally: adding a member XORs its content digest
// in, removing XORs it back out. Two stores with equal ContentKeys hold
// byte-identical membership (up to ordering). The member count is appended
// so the empty store and degenerate XOR cancellations stay distinct.
func (s *Store) ContentKey() string {
	return s.digest.Hex() + "/" + strconv.Itoa(len(s.order))
}

// ContentDigest returns the raw XOR accumulator behind ContentKey.
func (s *Store) ContentDigest() corpus.Digest { return s.digest }

// Clone returns a copy of the membership under a new name (certificates
// themselves are shared through the corpus, which treats them as
// immutable). The copy is O(1): the clone shares the source's index and
// order until either store is mutated, and the mutating store copies them
// first. Any number of goroutines may clone one store concurrently, as
// long as none mutates it meanwhile.
func (s *Store) Clone(name string) *Store {
	s.shared.Store(true)
	c := &Store{name: name, c: s.c, order: s.order, byID: s.byID, digest: s.digest}
	c.shared.Store(true)
	return c
}

// unshare gives s its own index and order before a mutation when Clone may
// have handed them to another store.
func (s *Store) unshare() {
	if s.shared.Load() {
		s.byID = maps.Clone(s.byID)
		s.order = slices.Clone(s.order)
		s.shared.Store(false)
	}
}

// Union returns a new store containing every certificate present in any of
// the inputs (first instance of each identity wins). The union interns into
// the first input's corpus (the shared corpus when there are no inputs).
func Union(name string, stores ...*Store) *Store {
	cp := corpus.Shared()
	if len(stores) > 0 {
		cp = stores[0].c
	}
	u := NewIn(name, cp)
	for _, st := range stores {
		if st.c == cp {
			for _, ref := range st.Refs() {
				u.AddRef(ref)
			}
			continue
		}
		for _, c := range st.Certificates() {
			u.Add(c)
		}
	}
	return u
}

// Intersect returns a new store with the certificates of a whose identities
// also appear in b.
func Intersect(name string, a, b *Store) *Store {
	out := NewIn(name, a.c)
	for _, id := range a.order {
		if b.ContainsIdentity(id) {
			out.AddRef(a.byID[id])
		}
	}
	return out
}

// Subtract returns a new store with the certificates of a whose identities
// do not appear in b.
func Subtract(name string, a, b *Store) *Store {
	out := NewIn(name, a.c)
	for _, id := range a.order {
		if !b.ContainsIdentity(id) {
			out.AddRef(a.byID[id])
		}
	}
	return out
}

// DiffResult reports a three-way comparison of two stores under equivalence.
type DiffResult struct {
	OnlyA []*x509.Certificate // in a but not b
	OnlyB []*x509.Certificate // in b but not a
	Both  []*x509.Certificate // a's instance of certificates present in both
}

// Diff compares two stores under certificate equivalence.
func Diff(a, b *Store) DiffResult {
	var d DiffResult
	for _, id := range a.order {
		c := a.c.Cert(a.byID[id])
		if b.ContainsIdentity(id) {
			d.Both = append(d.Both, c)
		} else {
			d.OnlyA = append(d.OnlyA, c)
		}
	}
	for _, id := range b.order {
		if !a.ContainsIdentity(id) {
			d.OnlyB = append(d.OnlyB, b.c.Cert(b.byID[id]))
		}
	}
	return d
}

// ByteIntersectCount counts the certificates of a that appear byte-identical
// (same DER encoding) in b. Contrast with Intersect, which matches under the
// paper's subject+key equivalence: §2 reports 117 byte-shared roots between
// AOSP 4.4 and Mozilla while Table 4 counts 130 equivalence-shared. Byte
// identity is answered from interned content digests — no DER is touched.
func ByteIntersectCount(a, b *Store) int {
	raw := make(map[corpus.Digest]bool, b.Len())
	for _, ref := range b.Refs() {
		raw[b.c.Entry(ref).Digest] = true
	}
	n := 0
	for _, ref := range a.Refs() {
		if raw[a.c.Entry(ref).Digest] {
			n++
		}
	}
	return n
}

// Equal reports whether two stores contain exactly the same identities.
func Equal(a, b *Store) bool {
	if a.Len() != b.Len() {
		return false
	}
	for _, id := range a.order {
		if !b.ContainsIdentity(id) {
			return false
		}
	}
	return true
}

// SortedSubjects returns the subject strings of the store sorted
// lexicographically — convenient for deterministic reporting.
func (s *Store) SortedSubjects() []string {
	out := make([]string, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, id.Subject)
	}
	sort.Strings(out)
	return out
}

// String summarizes the store.
func (s *Store) String() string {
	return fmt.Sprintf("%s (%d roots)", s.name, s.Len())
}
