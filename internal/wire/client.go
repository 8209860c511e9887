package wire

import (
	"bufio"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net"
	"strconv"
	"time"

	"tangledmass/internal/obs"
	"tangledmass/internal/resilient"
)

// ClientConfig is what a protocol package hands Dial. Zero fields take the
// defaults noted on each.
type ClientConfig struct {
	// Name prefixes errors ("collect", "notarynet").
	Name string
	// Dial opens a transport. Nil means TCP with a 10s connect timeout.
	Dial func(ctx context.Context, addr string) (net.Conn, error)
	// Retry runs every connect and round trip. Nil means 4 attempts with
	// short jittered backoff, reporting through Observer.
	Retry *resilient.Retrier
	// Breaker guards each attempt. Nil means no breaker.
	Breaker *resilient.Breaker
	// Timeout bounds one attempt. Zero means one minute.
	Timeout time.Duration
	// Observer receives the default retrier's counters; nil is silent.
	Observer *obs.Observer
	// Dials and DialErrors count transport dials and failed dials.
	Dials, DialErrors *obs.Counter
}

// Client is a line-framed request/response client. Sequential use only:
// one request, one response line, in order. After any mid-exchange
// failure the scanner may hold half a response to an earlier request, so
// the transport is marked broken and the next attempt reconnects — that
// is what keeps a retry from reading a stale response for the wrong
// request. Requests carry idempotency IDs (NextID) the server
// deduplicates, so a retry after a lost response is not applied twice.
type Client struct {
	cfg   ClientConfig
	addr  string
	nonce string
	seq   uint64

	conn    net.Conn
	scanner *bufio.Scanner
	enc     *json.Encoder
	broken  bool
}

// Dial connects to addr. The initial connect already runs under the retry
// policy, bounded by ctx.
func Dial(ctx context.Context, addr string, cfg ClientConfig) (*Client, error) {
	if cfg.Timeout <= 0 {
		cfg.Timeout = time.Minute
	}
	if cfg.Dial == nil {
		cfg.Dial = func(ctx context.Context, addr string) (net.Conn, error) {
			d := &net.Dialer{Timeout: 10 * time.Second}
			return d.DialContext(ctx, "tcp", addr)
		}
	}
	if cfg.Retry == nil {
		cfg.Retry = resilient.NewRetrier(resilient.Policy{
			MaxAttempts: 4,
			BaseDelay:   20 * time.Millisecond,
			MaxDelay:    500 * time.Millisecond,
		}, 0).WithObserver(cfg.Observer)
	}
	c := &Client{cfg: cfg, addr: addr, nonce: newNonce()}
	if err := cfg.Retry.Do(ctx, func(int) error { return c.connect(ctx) }); err != nil {
		return nil, err
	}
	return c, nil
}

// newNonce labels a client's idempotency IDs. Uniqueness, not
// unpredictability, is what matters; an entropy-pool failure is not
// recoverable.
func newNonce() string {
	b := make([]byte, 6)
	if _, err := rand.Read(b); err != nil {
		panic(fmt.Sprintf("wire: reading nonce entropy: %v", err))
	}
	return hex.EncodeToString(b)
}

// NextID returns a fresh idempotency ID, "<nonce>-<seq>". A request keeps
// its ID across every retry of its round trip.
func (c *Client) NextID() string {
	id := c.nonce + "-" + strconv.FormatUint(c.seq, 10)
	c.seq++
	return id
}

// connect establishes a fresh transport, replacing any broken one.
func (c *Client) connect(ctx context.Context) error {
	c.cfg.Dials.Inc()
	conn, err := c.cfg.Dial(ctx, c.addr)
	if err != nil {
		c.cfg.DialErrors.Inc()
		return fmt.Errorf("%s: dialing %s: %w", c.cfg.Name, c.addr, err)
	}
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, initialLineBuf), MaxLineBytes)
	c.conn, c.scanner, c.enc, c.broken = conn, sc, json.NewEncoder(conn), false
	return nil
}

// markBroken poisons the transport after a mid-exchange failure so the
// next attempt starts on a fresh connection.
func (c *Client) markBroken() {
	c.broken = true
	if c.conn != nil {
		_ = c.conn.Close()
	}
}

// Close releases the connection.
func (c *Client) Close() error {
	if c.conn == nil {
		return nil
	}
	return c.conn.Close()
}

// Reply is a protocol's response type: Status reports whether the server
// accepted the request and, if not, its reason.
type Reply interface {
	Status() (ok bool, reason string)
}

// RoundTrip sends req and decodes one response line into a fresh R,
// reconnecting and retrying transient failures within ctx. Transport
// failures (refused, reset, timeout, a truncated or undecodable line) are
// transient and count against the breaker; an ok:false reply arrives over
// a healthy transport, so it is permanent and does not.
func RoundTrip[R Reply](ctx context.Context, c *Client, req any) (R, error) {
	var resp R
	err := c.cfg.Retry.Do(ctx, func(int) error {
		if err := c.cfg.Breaker.Allow(); err != nil {
			return err
		}
		r, err := attempt[R](ctx, c, req)
		if resilient.Classify(err) == resilient.Transient {
			c.cfg.Breaker.Record(err)
		} else {
			c.cfg.Breaker.Record(nil)
		}
		if err != nil {
			return err
		}
		resp = r
		return nil
	})
	return resp, err
}

// attempt runs one exchange on the current transport.
func attempt[R Reply](ctx context.Context, c *Client, req any) (R, error) {
	var resp R
	line, err := c.exchange(ctx, req)
	if err != nil {
		return resp, err
	}
	if err := json.Unmarshal(line, &resp); err != nil {
		// Corrupted or truncated line: the framing is no longer trustworthy.
		c.markBroken()
		return resp, resilient.MarkTransient(fmt.Errorf("%s: decoding response: %w", c.cfg.Name, err))
	}
	if ok, reason := resp.Status(); !ok {
		// Protocol-level rejection over a healthy transport: not retryable,
		// and the connection stays usable.
		return resp, resilient.MarkPermanent(fmt.Errorf("%s: server error: %s", c.cfg.Name, reason))
	}
	return resp, nil
}

// exchange writes req and returns the response line, which stays valid
// until the next exchange.
func (c *Client) exchange(ctx context.Context, req any) ([]byte, error) {
	if c.broken || c.conn == nil {
		if err := c.connect(ctx); err != nil {
			return nil, err
		}
	}
	deadline := time.Now().Add(c.cfg.Timeout)
	if dl, ok := ctx.Deadline(); ok && dl.Before(deadline) {
		deadline = dl
	}
	if err := c.conn.SetDeadline(deadline); err != nil {
		c.markBroken()
		return nil, fmt.Errorf("%s: setting deadline: %w", c.cfg.Name, err)
	}
	if err := c.enc.Encode(req); err != nil {
		c.markBroken()
		return nil, fmt.Errorf("%s: sending request: %w", c.cfg.Name, err)
	}
	if !c.scanner.Scan() {
		err := c.scanner.Err()
		c.markBroken()
		if err != nil {
			return nil, fmt.Errorf("%s: reading response: %w", c.cfg.Name, err)
		}
		return nil, resilient.MarkTransient(fmt.Errorf("%s: connection closed by server", c.cfg.Name))
	}
	return c.scanner.Bytes(), nil
}
