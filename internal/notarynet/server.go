package notarynet

import (
	"bufio"
	"crypto/x509"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"

	"tangledmass/internal/corpus"
	"tangledmass/internal/notary"
	"tangledmass/internal/obs"
	"tangledmass/internal/rootstore"
)

// maxLineBytes bounds one protocol line. Chains of a few certificates fit
// in well under 64 KiB; a validate request carrying a 262-root store needs
// more.
const maxLineBytes = 8 << 20

// seenCap bounds the idempotency-ID window. Retries follow failures within
// seconds, so a few thousand recent IDs is plenty; older ones age out.
const seenCap = 4096

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
	ln   net.Listener
	obs  *obs.Observer

	mu        sync.Mutex
	closed    bool
	wg        sync.WaitGroup
	conns     map[net.Conn]bool
	seen      map[string]bool
	seenOrder []string
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
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("notarynet: listening on %s: %w", addr, err)
	}
	observer := op.observer
	if observer == nil {
		observer = obs.New()
	}
	s := &Server{view: v, ing: ing, ln: ln, obs: observer, conns: make(map[net.Conn]bool), seen: make(map[string]bool)}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listening address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Observer returns the server's observer — the daemons mount obs.Handler
// on it.
func (s *Server) Observer() *obs.Observer { return s.obs }

// Snapshot captures the server's current metrics: ingest/dedupe/query
// counters and the sensor-connection gauge. Tests assert against this
// instead of reaching into server internals.
func (s *Server) Snapshot() obs.Snapshot { return s.obs.Snapshot() }

// Close stops accepting and waits for in-flight connections to finish.
// A request already being handled completes and gets its response; idle
// connections are unblocked so Close does not wait out their read
// deadlines.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for conn := range s.conns {
		// Expire pending reads now; handlers drain and exit.
		_ = conn.SetReadDeadline(time.Unix(1, 0))
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
}

// armRead sets the idle deadline for the next request, or reports false if
// the server has closed — the deadline and the closed flag share the mutex
// so Close cannot re-arm a connection it just expired.
func (s *Server) armRead(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	return conn.SetReadDeadline(time.Now().Add(2*time.Minute)) == nil
}

func (s *Server) handle(conn net.Conn) {
	defer conn.Close()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.conns[conn] = true
	s.mu.Unlock()
	s.obs.Gauge(KeySensorsActive).Inc()
	defer func() {
		s.obs.Gauge(KeySensorsActive).Dec()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	// Sensors stream for long periods; analysis clients are short-lived.
	// An idle deadline reaps abandoned connections either way.
	scanner := bufio.NewScanner(conn)
	scanner.Buffer(make([]byte, 64<<10), maxLineBytes)
	enc := json.NewEncoder(conn)
	for {
		if !s.armRead(conn) {
			return
		}
		if !scanner.Scan() {
			return
		}
		line := scanner.Bytes()
		if len(line) == 0 {
			continue
		}
		var req Request
		resp := Response{OK: true}
		if err := json.Unmarshal(line, &req); err != nil {
			s.obs.Counter(KeyBadRequest).Inc()
			resp = Response{Error: "bad request: " + err.Error()}
		} else {
			resp = s.dispatch(req)
		}
		if err := conn.SetWriteDeadline(time.Now().Add(time.Minute)); err != nil {
			return
		}
		if err := enc.Encode(resp); err != nil {
			return
		}
	}
}

// duplicate records id and reports whether it was already seen. Requests
// without an ID are never deduplicated.
func (s *Server) duplicate(id string) bool {
	if id == "" {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.seen[id] {
		return true
	}
	s.seen[id] = true
	s.seenOrder = append(s.seenOrder, id)
	if len(s.seenOrder) > seenCap {
		delete(s.seen, s.seenOrder[0])
		s.seenOrder = s.seenOrder[1:]
	}
	return false
}

// forget drops an idempotency ID recorded by duplicate — used when the
// ingest behind it failed, so the eventual retry is processed rather than
// deduplicated. The ID stays in seenOrder; the aging loop tolerates
// already-deleted entries.
func (s *Server) forget(id string) {
	if id == "" {
		return
	}
	s.mu.Lock()
	delete(s.seen, id)
	s.mu.Unlock()
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
		// Acknowledge a re-sent observation whose response was lost without
		// double-counting it; dedupe runs after validation so malformed
		// retries still error.
		if s.duplicate(req.ID) {
			s.obs.Counter(KeyIngestDedupe).Inc()
			return Response{OK: true}
		}
		if err := s.ing.Observe(notary.Observation{Chain: chain, Port: req.Port}); err != nil {
			// The observation was NOT durably recorded: forget the ID so the
			// sensor's retry is not absorbed as a duplicate and lost.
			s.forget(req.ID)
			s.obs.Counter(KeyIngestRejected).Inc()
			return Response{Error: "observe: " + err.Error()}
		}
		s.obs.Counter(KeyIngestTotal).Inc()
		return Response{OK: true}

	case "observe_ca":
		cert, err := DecodeCert(req.Cert)
		if err != nil {
			return Response{Error: err.Error()}
		}
		if s.duplicate(req.ID) {
			s.obs.Counter(KeyIngestDedupe).Inc()
			return Response{OK: true}
		}
		if err := s.ing.ObserveCA(cert, req.Port); err != nil {
			s.forget(req.ID)
			s.obs.Counter(KeyIngestRejected).Inc()
			return Response{Error: "observe_ca: " + err.Error()}
		}
		s.obs.Counter(KeyIngestTotal).Inc()
		return Response{OK: true}

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
		if s.duplicate(req.ID) {
			s.obs.Counter(KeyIngestDedupe).Inc()
			return Response{OK: true, Applied: len(batch)}
		}
		// Delegation order matters for retry safety: a BatchIngester (the
		// sharded router) tracks the ID per shard, an atomic appender (the
		// durable DB) commits all-or-nothing, and only the plain in-memory
		// Notary takes the item loop, where partial application is harmless
		// because Observe never fails.
		var err error
		switch ing := s.ing.(type) {
		case BatchIngester:
			err = ing.ObserveBatch(req.ID, batch)
		case batchAppender:
			err = ing.Append(batch)
		default:
			for _, o := range batch {
				if err = s.ing.Observe(o); err != nil {
					break
				}
			}
		}
		if err != nil {
			s.forget(req.ID)
			s.obs.Counter(KeyIngestRejected).Inc()
			return Response{Error: "observe_batch: " + err.Error()}
		}
		s.obs.Counter(KeyIngestTotal).Add(int64(len(batch)))
		return Response{OK: true, Applied: len(batch)}

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
