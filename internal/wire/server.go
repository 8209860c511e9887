// Package wire is the transport both collection channels share: the
// Netalyzr collector (internal/collect) and the Notary service
// (internal/notarynet). Each speaks newline-delimited JSON over TCP, one
// response line per request line, so a connection can pipeline.
//
// The package owns everything the two protocols have in common and
// nothing they do not:
//
//   - Server: the accept loop, the live-connection registry, idle read
//     deadlines, and a Close that lets in-flight requests finish and
//     expires idle reads at once.
//   - Client: connect, mark-broken-and-reconnect, idempotency IDs
//     ("nonce-seq"), and retries through internal/resilient.
//   - Window: the bounded idempotency window that turns a retried mutation
//     into exactly-once application.
//
// A protocol package supplies a Handler (its dispatch switch) and resolved
// obs instruments named from its own keys; wire names no metrics itself.
package wire

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"

	"tangledmass/internal/obs"
)

// MaxLineBytes bounds one protocol line in either direction. Chains of a
// few certificates fit in well under 64 KiB; a validate request carrying a
// 262-root store needs more.
const MaxLineBytes = 8 << 20

const (
	// idleTimeout reaps abandoned connections. Sensors stream for long
	// periods, analysis clients are short-lived; either way a connection
	// silent this long is gone.
	idleTimeout = 2 * time.Minute
	// writeTimeout bounds writing one response, and so how long Close can
	// wait on a peer that stopped reading.
	writeTimeout = time.Minute
	// initialLineBuf is the scanner's starting buffer; it grows up to the
	// line cap only for lines that need it.
	initialLineBuf = 64 << 10
)

// Handler answers one non-empty request line. The server writes the
// returned value back as one JSON line. A handler must answer every line,
// malformed ones included, so the client's framing stays in step.
type Handler func(line []byte) any

// ServerConfig is what a protocol package hands Listen.
type ServerConfig struct {
	// Name prefixes errors ("collect", "notarynet").
	Name string
	// Handle is the protocol's dispatch.
	Handle Handler
	// Active gauges currently connected clients; nil means unmetered.
	Active *obs.Gauge
}

// Server is a line-framed request/response server. Construct with Listen.
type Server struct {
	ln      net.Listener
	cfg     ServerConfig
	maxLine int

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
}

// Listen starts a server on addr ("127.0.0.1:0" for an ephemeral port).
func Listen(addr string, cfg ServerConfig) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("%s: listening on %s: %w", cfg.Name, addr, err)
	}
	s := newServer(cfg, MaxLineBytes)
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

func newServer(cfg ServerConfig, maxLine int) *Server {
	return &Server{cfg: cfg, maxLine: maxLine, conns: make(map[net.Conn]struct{})}
}

// Addr returns the listening address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops accepting and drains: a request already being handled
// completes and gets its response, and idle connections have their
// pending reads expired at once, so Close does not wait out their read
// deadlines. Safe to call more than once.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for conn := range s.conns {
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
			s.serve(conn)
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
	return conn.SetReadDeadline(time.Now().Add(idleTimeout)) == nil
}

// serve runs one connection: scan a line (up to the line cap; a longer one
// ends the connection), skip it if empty, otherwise answer it with one
// JSON line.
func (s *Server) serve(conn net.Conn) {
	defer conn.Close()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.conns[conn] = struct{}{}
	s.mu.Unlock()
	s.cfg.Active.Inc()
	defer func() {
		s.cfg.Active.Dec()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()

	scanner := bufio.NewScanner(conn)
	scanner.Buffer(make([]byte, min(initialLineBuf, s.maxLine)), s.maxLine)
	enc := json.NewEncoder(conn)
	for s.armRead(conn) && scanner.Scan() {
		line := scanner.Bytes()
		if len(line) == 0 {
			continue
		}
		resp := s.cfg.Handle(line)
		if err := conn.SetWriteDeadline(time.Now().Add(writeTimeout)); err != nil {
			return
		}
		if err := enc.Encode(resp); err != nil {
			return
		}
	}
}
