package notarynet

import (
	"crypto/x509"
	"encoding/json"
	"fmt"

	"tangledmass/internal/corpus"
	"tangledmass/internal/notary"
	"tangledmass/internal/obs"
	"tangledmass/internal/rootstore"
	"tangledmass/internal/wire"
)

// Ingester is the server's write path. The default wraps the Notary
// directly (in-memory only); daemons running the durable layer pass the
// notary.DB via WithIngester so every accepted observation is journaled
// and fsynced before the sensor sees its acknowledgment. A non-nil error
// turns into a protocol-level error response — the sensor retries, and
// nothing unacknowledged is double-counted thanks to the idempotency IDs.
type Ingester interface {
	Observe(o notary.Observation) error
	ObserveCA(cert *x509.Certificate, port int) error
}

// BatchIngester is the write path for observe_batch when the ingester
// needs the request's idempotency ID — the sharded router applies a batch
// shard by shard and must remember, per shard, which IDs that shard has
// already committed, so a retry after a mid-batch failure is applied
// exactly once per shard. The server's own whole-batch dedupe still
// absorbs retries whose first attempt fully succeeded.
type BatchIngester interface {
	Ingester
	ObserveBatch(id string, batch []notary.Observation) error
}

// batchAppender is the atomic batch shape notary.DB already has: one
// Append is one group commit, applied in memory only after it is durable,
// so a failed Append never leaves a partially acknowledged batch behind.
type batchAppender interface {
	Append(batch []notary.Observation) error
}

// View is the server's read path: the queries has_record, stats and
// validate are answered from it. The bare *notary.Notary satisfies it; a
// sharded notaryshard.Cluster answers from its shard-ordered merged view,
// which is what keeps remote validation byte-identical at any shard
// count.
type View interface {
	HasRecord(cert *x509.Certificate) bool
	NumUnique() int
	NumUnexpired() int
	Sessions() int64
	ValidateOne(s *rootstore.Store) *notary.StoreReport
}

// notaryIngester adapts the bare in-memory Notary to the Ingester shape.
type notaryIngester struct{ n *notary.Notary }

func (ni notaryIngester) Observe(o notary.Observation) error { ni.n.Observe(o); return nil }
func (ni notaryIngester) ObserveCA(cert *x509.Certificate, port int) error {
	ni.n.ObserveCA(cert, port)
	return nil
}

// Server exposes a Notary over TCP. Construct with NewServer; Close stops
// it.
type Server struct {
	view View
	ing  Ingester
	ws   *wire.Server
	obs  *obs.Observer
	seen wire.Window
}

// NewServer starts a server answering reads from v on addr ("127.0.0.1:0"
// for an ephemeral port). Writes go through the WithIngester option when
// given; otherwise v itself must be writable — a bare *notary.Notary or
// anything implementing Ingester (the sharded cluster). Options:
// WithObserver shares an observer (the default is a private one, so
// Snapshot and the debug handler always have something to serve).
func NewServer(v View, addr string, opts ...Option) (*Server, error) {
	op := buildOptions(opts)
	ing := op.ingester
	if ing == nil {
		switch w := v.(type) {
		case *notary.Notary:
			ing = notaryIngester{n: w}
		case Ingester:
			ing = w
		default:
			return nil, fmt.Errorf("notarynet: view %T is not writable; pass WithIngester", v)
		}
	}
	observer := op.observer
	if observer == nil {
		observer = obs.New()
	}
	s := &Server{view: v, ing: ing, obs: observer}
	ws, err := wire.Listen(addr, wire.ServerConfig{
		Name:   "notarynet",
		Handle: s.handle,
		Active: observer.Gauge(KeySensorsActive),
	})
	if err != nil {
		return nil, err
	}
	s.ws = ws
	return s, nil
}

// Addr returns the listening address.
func (s *Server) Addr() string { return s.ws.Addr() }

// Observer returns the server's observer — the daemons mount obs.Handler
// on it.
func (s *Server) Observer() *obs.Observer { return s.obs }

// Snapshot captures the server's current metrics: ingest/dedupe/query
// counters and the sensor-connection gauge. Tests assert against this
// instead of reaching into server internals.
func (s *Server) Snapshot() obs.Snapshot { return s.obs.Snapshot() }

// Close stops accepting and drains: a request already being handled
// completes and gets its response, and idle sensors are unblocked so Close
// does not wait out their read deadlines.
func (s *Server) Close() error { return s.ws.Close() }

// handle decodes one request line for dispatch (wire.Handler).
func (s *Server) handle(line []byte) any {
	var req Request
	if err := json.Unmarshal(line, &req); err != nil {
		s.obs.Counter(KeyBadRequest).Inc()
		return Response{Error: "bad request: " + err.Error()}
	}
	return s.dispatch(req)
}

// ingest applies one mutation of n observations through the idempotency
// window. A duplicate of an applied request is acknowledged without being
// re-applied; one whose first attempt is still in flight waits for it. A
// failed ingest was NOT recorded, so the window forgets its ID and the
// sensor's retry is processed rather than absorbed.
func (s *Server) ingest(op, id string, n int, apply func() error) Response {
	dup, err := s.seen.Do(id, apply)
	switch {
	case dup:
		s.obs.Counter(KeyIngestDedupe).Inc()
	case err != nil:
		s.obs.Counter(KeyIngestRejected).Inc()
		return Response{Error: op + ": " + err.Error()}
	default:
		s.obs.Counter(KeyIngestTotal).Add(int64(n))
	}
	return Response{OK: true}
}

func (s *Server) dispatch(req Request) Response {
	switch req.Op {
	case "observe":
		chain, err := DecodeChain(req.Chain)
		if err != nil {
			return Response{Error: err.Error()}
		}
		if len(chain) == 0 {
			return Response{Error: "observe: empty chain"}
		}
		// Dedupe runs after validation, so malformed retries still error.
		return s.ingest("observe", req.ID, 1, func() error {
			return s.ing.Observe(notary.Observation{Chain: chain, Port: req.Port})
		})

	case "observe_ca":
		cert, err := DecodeCert(req.Cert)
		if err != nil {
			return Response{Error: err.Error()}
		}
		return s.ingest("observe_ca", req.ID, 1, func() error {
			return s.ing.ObserveCA(cert, req.Port)
		})

	case "observe_batch":
		if len(req.Batch) == 0 {
			return Response{Error: "observe_batch: empty batch"}
		}
		batch := make([]notary.Observation, len(req.Batch))
		for i, item := range req.Batch {
			chain, err := DecodeChain(item.Chain)
			if err != nil {
				return Response{Error: err.Error()}
			}
			if len(chain) == 0 {
				return Response{Error: fmt.Sprintf("observe_batch: empty chain at index %d", i)}
			}
			batch[i] = notary.Observation{Chain: chain, Port: item.Port}
		}
		resp := s.ingest("observe_batch", req.ID, len(batch), func() error {
			return s.observeBatch(req.ID, batch)
		})
		if resp.OK {
			resp.Applied = len(batch)
		}
		return resp

	case "has_record":
		cert, err := DecodeCert(req.Cert)
		if err != nil {
			return Response{Error: err.Error()}
		}
		s.obs.Counter(KeyQueryTotal).Inc()
		return Response{OK: true, Recorded: s.view.HasRecord(cert)}

	case "stats":
		s.obs.Counter(KeyQueryTotal).Inc()
		return Response{
			OK:        true,
			Unique:    s.view.NumUnique(),
			Unexpired: s.view.NumUnexpired(),
			Sessions:  s.view.Sessions(),
		}

	case "validate":
		roots, err := DecodeChain(req.Roots)
		if err != nil {
			return Response{Error: err.Error()}
		}
		if len(roots) == 0 {
			return Response{Error: "validate: empty root set"}
		}
		name := req.StoreName
		if name == "" {
			name = "client store"
		}
		store := rootstore.New(name)
		store.AddAll(roots)
		rep := s.view.ValidateOne(store)
		counts := make([]int, len(roots))
		for i, r := range roots {
			counts[i] = rep.PerRoot[corpus.IdentityOf(r)]
		}
		s.obs.Counter(KeyQueryTotal).Inc()
		return Response{OK: true, Validated: rep.Validated, PerRootCount: counts}

	default:
		s.obs.Counter(KeyBadRequest).Inc()
		return Response{Error: fmt.Sprintf("unknown op %q", req.Op)}
	}
}

// observeBatch hands a batch to the write path. Delegation order matters
// for retry safety: a BatchIngester (the sharded router) tracks the ID per
// shard, an atomic appender (the durable DB) commits all-or-nothing, and
// only the plain in-memory Notary takes the item loop, where partial
// application is harmless because Observe never fails.
func (s *Server) observeBatch(id string, batch []notary.Observation) error {
	switch ing := s.ing.(type) {
	case BatchIngester:
		return ing.ObserveBatch(id, batch)
	case batchAppender:
		return ing.Append(batch)
	}
	for _, o := range batch {
		if err := s.ing.Observe(o); err != nil {
			return err
		}
	}
	return nil
}
