package notarynet

import (
	"context"
	"net"
	"time"

	"tangledmass/internal/obs"
	"tangledmass/internal/resilient"
)

// options collects the knobs shared by NewServer and NewClient: one Option
// vocabulary for both constructors, so the package exposes a single
// uniform New(addr, ...Option) shape.
type options struct {
	observer       *obs.Observer
	ingester       Ingester
	timeout        time.Duration
	retry          *resilient.Retrier
	disableBreaker bool
	dial           func(ctx context.Context, addr string) (net.Conn, error)
}

// Option configures a notarynet server or client.
type Option func(*options)

// WithObserver attaches the observer counters and gauges report through.
// Without it the server creates a private observer (so Snapshot and the
// debug handler always work) and the client stays silent.
func WithObserver(o *obs.Observer) Option {
	return func(op *options) { op.observer = o }
}

// WithIngester routes the server's write operations (observe, observe_ca)
// through ing instead of straight into the in-memory Notary. notaryd
// passes the durable notary.DB here, making the network acknowledgment
// and the fsync acknowledgment one and the same. Client-side it is
// ignored.
func WithIngester(ing Ingester) Option {
	return func(op *options) { op.ingester = ing }
}

// WithTimeout bounds one client round trip. Zero (the default) means one
// minute. Server-side it is ignored.
func WithTimeout(d time.Duration) Option {
	return func(op *options) { op.timeout = d }
}

// WithRetryPolicy overrides the client's retry policy. Nil (the default)
// means 4 attempts with short jittered backoff.
func WithRetryPolicy(r *resilient.Retrier) Option {
	return func(op *options) { op.retry = r }
}

// WithoutBreaker runs the client with no circuit breaker — deterministic
// harnesses use this because the breaker's cooldown is wall-clock.
func WithoutBreaker() Option {
	return func(op *options) { op.disableBreaker = true }
}

// WithDialFunc overrides the client's transport dialer — the
// fault-injection harness hooks in here. Nil (the default) means TCP with
// a 10s connect timeout.
func WithDialFunc(dial func(ctx context.Context, addr string) (net.Conn, error)) Option {
	return func(op *options) { op.dial = dial }
}

func buildOptions(opts []Option) options {
	var op options
	for _, o := range opts {
		o(&op)
	}
	return op
}
