package notaryshard

import (
	"context"
	"crypto/x509"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tangledmass/internal/corpus"
	"tangledmass/internal/faultfs"
	"tangledmass/internal/notary"
	"tangledmass/internal/obs"
	"tangledmass/internal/parallel"
	"tangledmass/internal/rootstore"
	"tangledmass/internal/wire"
)

// Option configures a Cluster.
type Option func(*options)

type options struct {
	c        *corpus.Corpus
	observer *obs.Observer
	workers  int
}

// WithCorpus interns all shards against c. Every shard MUST share one
// corpus — that is what makes Refs, and therefore shard placement and the
// merge, agree. Defaults to the process-wide shared corpus.
func WithCorpus(c *corpus.Corpus) Option { return func(o *options) { o.c = c } }

// WithObserver attaches the router-level observer. Each shard always gets
// its own private observer; Snapshot() merges them all.
func WithObserver(ob *obs.Observer) Option { return func(o *options) { o.observer = ob } }

// WithWorkers bounds each shard notary's chain-building parallelism and
// the router's cross-shard apply fan-out.
func WithWorkers(w int) Option { return func(o *options) { o.workers = w } }

// shard is one member: a full notary (optionally durable) plus the
// per-shard idempotency window for retried batches.
type shard struct {
	n        *notary.Notary
	db       *notary.DB // nil for an in-memory shard
	observer *obs.Observer
	seen     wire.Window

	// failNext, when non-nil, fails the next apply once — a white-box test
	// seam for exercising the router's retry/idempotency path.
	mu       sync.Mutex
	failNext error
}

// Cluster routes observations across N notary shards by leaf content
// address and merges them back into a single-notary-equivalent view. It
// implements notarynet's View, Ingester and BatchIngester, and tlsnet's
// Sink, so it drops in anywhere a bare Notary or notary.DB does.
type Cluster struct {
	at       time.Time
	c        *corpus.Corpus
	observer *obs.Observer
	workers  int
	durable  bool
	shards   []*shard

	mutations atomic.Uint64

	mu       sync.Mutex
	merged   *notary.Notary
	mergedAt uint64
	hasMerge bool
}

// New builds an in-memory cluster of nShards at reference time `at`.
func New(at time.Time, nShards int, opts ...Option) (*Cluster, error) {
	cl, op, err := newCluster(at, nShards, opts)
	if err != nil {
		return nil, err
	}
	for i := range cl.shards {
		so := obs.New()
		cl.shards[i] = &shard{
			n: notary.New(at, notary.WithCorpus(op.c), notary.WithObserver(so),
				notary.WithWorkers(op.workers)),
			observer: so,
		}
	}
	return cl, nil
}

// Open builds a durable cluster: shard i journals and checkpoints under
// dir/shard-<i>, each with its own WAL and snapshot generation, recovered
// independently on reopen. Because placement is a pure function of
// certificate bytes, reopening with a different nShards still merges to
// the correct database — data written under the old layout is simply
// absorbed from whichever shard holds it.
func Open(fsys faultfs.FS, dir string, at time.Time, nShards int, opts ...Option) (*Cluster, error) {
	cl, op, err := newCluster(at, nShards, opts)
	if err != nil {
		return nil, err
	}
	cl.durable = true
	for i := range cl.shards {
		so := obs.New()
		db, err := notary.Open(fsys, faultfs.Join(dir, fmt.Sprintf("shard-%03d", i)), at,
			notary.WithCorpus(op.c), notary.WithObserver(so), notary.WithWorkers(op.workers))
		if err != nil {
			for _, sh := range cl.shards[:i] {
				_ = sh.db.Close()
			}
			return nil, fmt.Errorf("notaryshard: opening shard %d: %w", i, err)
		}
		cl.shards[i] = &shard{n: db.Notary(), db: db, observer: so}
	}
	return cl, nil
}

func newCluster(at time.Time, nShards int, opts []Option) (*Cluster, *options, error) {
	if nShards < 1 {
		return nil, nil, fmt.Errorf("notaryshard: shard count %d < 1", nShards)
	}
	op := &options{c: corpus.Shared(), observer: obs.New()}
	for _, o := range opts {
		o(op)
	}
	if op.c == nil {
		op.c = corpus.Shared()
	}
	if op.observer == nil {
		op.observer = obs.New()
	}
	cl := &Cluster{
		at:       at,
		c:        op.c,
		observer: op.observer,
		workers:  op.workers,
		shards:   make([]*shard, nShards),
	}
	return cl, op, nil
}

// NumShards returns the cluster width.
func (cl *Cluster) NumShards() int { return len(cl.shards) }

// At returns the reference time shared by every shard.
func (cl *Cluster) At() time.Time { return cl.at }

// Corpus returns the shared corpus.
func (cl *Cluster) Corpus() *corpus.Corpus { return cl.c }

// ShardNotary exposes shard i's notary for tests and diagnostics.
func (cl *Cluster) ShardNotary(i int) *notary.Notary { return cl.shards[i].n }

// ShardSnapshot captures shard i's private metrics.
func (cl *Cluster) ShardSnapshot(i int) obs.Snapshot { return cl.shards[i].observer.Snapshot() }

// Snapshot merges the router's metrics with every shard's.
func (cl *Cluster) Snapshot() obs.Snapshot {
	s := cl.observer.Snapshot()
	for _, sh := range cl.shards {
		s = s.Merge(sh.observer.Snapshot())
	}
	return s
}

// FailNext arms shard i to fail its next apply with err — a deterministic
// fault-injection seam in the spirit of faultfs.MemFS.CrashAfter, letting
// the retry/idempotency tests stage a mid-batch shard failure without
// real disk or network faults.
func (cl *Cluster) FailNext(i int, err error) {
	sh := cl.shards[i]
	sh.mu.Lock()
	sh.failNext = err
	sh.mu.Unlock()
}

// shardIndexFor routes a certificate by its corpus content address.
func (cl *Cluster) shardIndexFor(cert *x509.Certificate) int {
	ref := cl.c.InternCert(cert)
	return ShardFor(cl.c.Entry(ref).Digest, len(cl.shards))
}

// apply commits a batch to this shard: through the journal when durable
// (all-or-nothing group commit), directly into memory otherwise. A fenced
// journal (ErrJournalFailed) gets one checkpoint-and-retry — the
// checkpoint rewrites a fresh snapshot and WAL generation, which is the
// documented recovery for a failed group commit.
func (sh *shard) apply(batch []notary.Observation) error {
	start := time.Now()
	err := sh.takeFailNext()
	if err == nil {
		if sh.db != nil {
			err = sh.db.Append(batch)
			if errors.Is(err, notary.ErrJournalFailed) {
				if cerr := sh.db.Checkpoint(); cerr == nil {
					err = sh.db.Append(batch)
				}
			}
		} else {
			sh.n.ObserveAll(batch)
		}
	}
	ms := float64(time.Since(start)) / float64(time.Millisecond)
	sh.observer.Histogram(KeyShardIngestLatency, IngestLatencyBuckets).Observe(ms)
	return err
}

func (sh *shard) takeFailNext() error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	err := sh.failNext
	sh.failNext = nil
	return err
}

// Observe routes one observation to its leaf's shard (notarynet.Ingester).
func (cl *Cluster) Observe(o notary.Observation) error {
	return cl.ObserveAll([]notary.Observation{o})
}

// ObserveAll routes a batch: observations are grouped by leaf shard with
// per-shard arrival order preserved, then the shard groups are applied in
// parallel — shards are disjoint, so cross-shard apply order cannot
// matter, which is exactly why the merged artifacts stay deterministic.
func (cl *Cluster) ObserveAll(batch []notary.Observation) error {
	return cl.ObserveBatch("", batch)
}

// ObserveBatch is ObserveAll carrying the request's idempotency ID
// (notarynet.BatchIngester). Each shard's wire.Window remembers IDs it has
// committed: when a retry arrives after a mid-batch failure, shards that
// already applied their slice skip it, shards that failed apply it — the
// batch lands exactly once per shard.
func (cl *Cluster) ObserveBatch(id string, batch []notary.Observation) error {
	if len(batch) == 0 {
		return nil
	}
	start := time.Now()
	groups := make([][]notary.Observation, len(cl.shards))
	for _, o := range batch {
		if len(o.Chain) == 0 {
			return errors.New("notaryshard: observation with empty chain")
		}
		i := cl.shardIndexFor(o.Chain[0])
		groups[i] = append(groups[i], o)
	}
	err := parallel.ForEach(context.Background(), len(cl.shards), func(_ context.Context, i int) error {
		if len(groups[i]) == 0 {
			return nil
		}
		sh := cl.shards[i]
		dup, err := sh.seen.Do(id, func() error { return sh.apply(groups[i]) })
		if err != nil {
			return fmt.Errorf("notaryshard: shard %d: %w", i, err)
		}
		if dup {
			cl.observer.Counter(KeyBatchDedupe).Inc()
		}
		return nil
	}, parallel.WithWorkers(cl.routeWorkers()))
	ms := float64(time.Since(start)) / float64(time.Millisecond)
	cl.observer.Histogram(KeyIngestLatency, IngestLatencyBuckets).Observe(ms)
	if err != nil {
		cl.observer.Counter(KeyIngestErrors).Inc()
		return err
	}
	cl.observer.Counter(KeyIngestTotal).Add(int64(len(batch)))
	cl.mutations.Add(1)
	return nil
}

func (cl *Cluster) routeWorkers() int {
	if cl.workers > 0 && cl.workers < len(cl.shards) {
		return cl.workers
	}
	return len(cl.shards)
}

// ObserveCA routes one CA-only observation to the certificate's shard —
// one shard, so its session is counted once (notarynet.Ingester).
func (cl *Cluster) ObserveCA(cert *x509.Certificate, port int) error {
	start := time.Now()
	sh := cl.shards[cl.shardIndexFor(cert)]
	var err error
	if sh.db != nil {
		err = sh.db.ObserveCA(cert, port)
	} else {
		sh.n.ObserveCA(cert, port)
	}
	ms := float64(time.Since(start)) / float64(time.Millisecond)
	cl.observer.Histogram(KeyIngestLatency, IngestLatencyBuckets).Observe(ms)
	if err != nil {
		cl.observer.Counter(KeyIngestErrors).Inc()
		return err
	}
	cl.observer.Counter(KeyIngestTotal).Inc()
	cl.mutations.Add(1)
	return nil
}

// ImportStore broadcasts a root store to every shard: store membership is
// a flag the merge ORs, so the merged view carries FromStore exactly as a
// single notary would, and each shard can answer HasRecord for store
// certificates locally.
func (cl *Cluster) ImportStore(s *rootstore.Store) error {
	for i, sh := range cl.shards {
		var err error
		if sh.db != nil {
			err = sh.db.ImportStore(s)
		} else {
			sh.n.ImportStore(s)
		}
		if err != nil {
			return fmt.Errorf("notaryshard: shard %d: %w", i, err)
		}
	}
	cl.mutations.Add(1)
	return nil
}

// Merged folds every shard, in shard order, into one fresh Notary sharing
// the cluster's corpus and reference time. Absorb is a commutative monoid
// over disjoint-by-session partitions, so the result is exactly the
// database a single notary fed the concatenated stream would hold — same
// entries, same counts, same windows — and every artifact derived from it
// is byte-identical at any shard count. The merge is memoized against the
// cluster's mutation counter; steady-state reads pay nothing.
func (cl *Cluster) Merged() *notary.Notary {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	at := cl.mutations.Load()
	if cl.hasMerge && cl.mergedAt == at {
		return cl.merged
	}
	m := notary.New(cl.at, notary.WithCorpus(cl.c), notary.WithWorkers(cl.workers))
	for i, sh := range cl.shards {
		if err := m.Absorb(sh.n); err != nil {
			// Shards are constructed with the cluster's corpus and time, the
			// only mismatches Absorb checks; reaching this is a bug.
			panic(fmt.Sprintf("notaryshard: absorbing shard %d: %v", i, err))
		}
	}
	cl.observer.Counter(KeyMergeTotal).Inc()
	cl.merged, cl.mergedAt, cl.hasMerge = m, at, true
	return m
}

// HasRecord answers from the certificate's own shard: leaf and CA
// observations land there by routing, and store imports are broadcast, so
// the one shard is authoritative (notarynet.View).
func (cl *Cluster) HasRecord(cert *x509.Certificate) bool {
	return cl.shards[cl.shardIndexFor(cert)].n.HasRecord(cert)
}

// Sessions sums the disjoint per-shard session totals (notarynet.View).
func (cl *Cluster) Sessions() int64 {
	var total int64
	for _, sh := range cl.shards {
		total += sh.n.Sessions()
	}
	return total
}

// NumUnique answers from the merged view — chains share intermediates
// across shards, so per-shard uniques overcount (notarynet.View).
func (cl *Cluster) NumUnique() int { return cl.Merged().NumUnique() }

// NumUnexpired answers from the merged view (notarynet.View).
func (cl *Cluster) NumUnexpired() int { return cl.Merged().NumUnexpired() }

// ValidateOne runs the Table 3/4 validation against the merged view
// (notarynet.View).
func (cl *Cluster) ValidateOne(s *rootstore.Store) *notary.StoreReport {
	return cl.Merged().ValidateOne(s)
}

// Checkpoint checkpoints every durable shard (no-op for in-memory).
func (cl *Cluster) Checkpoint() error {
	for i, sh := range cl.shards {
		if sh.db == nil {
			continue
		}
		if err := sh.db.Checkpoint(); err != nil {
			return fmt.Errorf("notaryshard: checkpointing shard %d: %w", i, err)
		}
	}
	return nil
}

// Close closes every durable shard, returning the first error after
// attempting all.
func (cl *Cluster) Close() error {
	var first error
	for i, sh := range cl.shards {
		if sh.db == nil {
			continue
		}
		if err := sh.db.Close(); err != nil && first == nil {
			first = fmt.Errorf("notaryshard: closing shard %d: %w", i, err)
		}
	}
	return first
}
