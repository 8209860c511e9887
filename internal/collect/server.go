package collect

import (
	"encoding/json"
	"fmt"
	"sync"

	"tangledmass/internal/obs"
	"tangledmass/internal/wire"
)

// wire messages: {"op":"submit","report":{...}} and {"op":"summary"};
// responses: {"ok":true,...} with the summary inlined for "summary".
type request struct {
	Op string `json:"op"`
	// ID is a client-unique idempotency token: a submit re-sent after a
	// lost response keeps its ID and is acknowledged without counting twice.
	ID     string      `json:"id,omitempty"`
	Report *WireReport `json:"report,omitempty"`
}

type response struct {
	OK      bool     `json:"ok"`
	Error   string   `json:"error,omitempty"`
	Summary *Summary `json:"summary,omitempty"`
}

// Status implements wire.Reply.
func (r response) Status() (bool, string) { return r.OK, r.Error }

// Server is the collection endpoint. Construct with NewServer.
type Server struct {
	ws   *wire.Server
	obs  *obs.Observer
	seen wire.Window

	mu      sync.Mutex
	sum     Summary
	closed  bool
	reports []WireReport
	keepAll bool
}

// NewServer starts a collector on addr ("127.0.0.1:0" for an ephemeral
// port). Options: WithKeepReports retains every submission; WithObserver
// shares an observer (the default is a private one, so Snapshot and the
// debug handler always have something to serve).
func NewServer(addr string, opts ...Option) (*Server, error) {
	op := buildOptions(opts)
	observer := op.observer
	if observer == nil {
		observer = obs.New()
	}
	s := &Server{obs: observer, sum: newSummary(), keepAll: op.keepReports}
	ws, err := wire.Listen(addr, wire.ServerConfig{
		Name:   "collect",
		Handle: s.handle,
		Active: observer.Gauge(KeyConnsActive),
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

// Snapshot captures the server's current metrics: submit/dedupe/rejection
// counters and the active-connection gauge. Tests assert against this
// instead of reaching into server internals.
func (s *Server) Snapshot() obs.Snapshot { return s.obs.Snapshot() }

// Close stops the collector and freezes the aggregate. Requests already in
// flight get a clean "collector closed" protocol error instead of racing
// the shutdown; idle connections are unblocked so Close does not wait out
// their read deadlines.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	return s.ws.Close()
}

// Summary returns a copy of the live aggregate.
func (s *Server) Summary() Summary {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sum.clone()
}

// Reports returns retained submissions (empty unless WithKeepReports).
func (s *Server) Reports() []WireReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]WireReport, len(s.reports))
	copy(out, s.reports)
	return out
}

// handle decodes one request line for dispatch (wire.Handler).
func (s *Server) handle(line []byte) any {
	var req request
	if err := json.Unmarshal(line, &req); err != nil {
		s.obs.Counter(KeyBadRequest).Inc()
		return response{Error: "bad request: " + err.Error()}
	}
	return s.dispatch(req)
}

func (s *Server) dispatch(req request) response {
	switch req.Op {
	case "submit":
		if req.Report == nil {
			s.obs.Counter(KeyBadRequest).Inc()
			return response{Error: "submit: missing report"}
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.closed {
			// The aggregate froze at Close; refuse cleanly rather than
			// absorbing a submission the summary reader will never see.
			s.obs.Counter(KeySubmitRejected).Inc()
			return response{Error: "collector closed"}
		}
		// Acknowledge a re-sent submission whose response was lost without
		// double-counting it. s.mu serializes submits, so a duplicate never
		// finds its ID still pending.
		dup, _ := s.seen.Do(req.ID, func() error {
			s.obs.Counter(KeySubmitTotal).Inc()
			s.sum.absorb(*req.Report)
			if s.keepAll {
				s.reports = append(s.reports, *req.Report)
			}
			return nil
		})
		if dup {
			s.obs.Counter(KeySubmitDedupe).Inc()
		}
		return response{OK: true}
	case "summary":
		s.obs.Counter(KeySummaryTotal).Inc()
		sum := s.Summary()
		return response{OK: true, Summary: &sum}
	default:
		s.obs.Counter(KeyBadRequest).Inc()
		return response{Error: fmt.Sprintf("unknown op %q", req.Op)}
	}
}
