package notarynet

import (
	"context"
	"crypto/x509"
	"fmt"
	"net"
	"testing"
	"time"

	"tangledmass/internal/faultnet"
	"tangledmass/internal/resilient"
)

// flakyClient dials srv through a faultnet injector under its own scope so
// resets mid-response, truncated lines and slowed writes hit the client's
// transport.
func flakyClient(t *testing.T, addr string, in *faultnet.Injector, scope string) *Client {
	t.Helper()
	dial := in.DialFunc(scope, "notary", func(ctx context.Context, addr string) (net.Conn, error) {
		d := &net.Dialer{Timeout: 5 * time.Second}
		return d.DialContext(ctx, "tcp", addr)
	})
	c, err := NewClient(context.Background(), addr,
		WithDialFunc(dial),
		// Enough attempts that a run of injected faults cannot exhaust the
		// policy; tight delays keep the test fast.
		WithRetryPolicy(resilient.NewRetrier(resilient.Policy{
			MaxAttempts: 8,
			BaseDelay:   time.Millisecond,
			MaxDelay:    5 * time.Millisecond,
		}, 1)),
		// The breaker's cooldown is wall-clock; with injected faults arriving
		// in bursts it would turn transient noise into hard failures here.
		WithoutBreaker())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func TestClientSurvivesFlakyServer(t *testing.T) {
	srv, n := startServer(t)
	root, leaves := testPKI(t)

	in := faultnet.New(faultnet.Plan{
		Seed:         42,
		ResetProb:    0.20,
		TruncateProb: 0.15,
		LatencyProb:  0.10,
		// Let whole response lines through before the reset so the server
		// has already applied the observe — the lost-response case the
		// idempotency IDs exist for — and a later roundtrip on the same
		// connection is what dies mid-response. The truncate budget cuts a
		// response line in half instead.
		ResetAfterBytes:    32,
		TruncateAfterBytes: 16,
		LatencyAmount:      time.Millisecond,
	})

	// Several sensors, each with its own decision scope — the injector's
	// intended shape. A clean connection lives for the whole sensor; a
	// faulted one dies mid-stream and forces a reconnect under retry.
	const sensors = 8
	const perSensor = 5
	const observations = sensors * perSensor
	for s := 0; s < sensors; s++ {
		c := flakyClient(t, srv.Addr(), in, fmt.Sprintf("sensor-%d", s))
		for i := 0; i < perSensor; i++ {
			if err := c.Observe(context.Background(), []*x509.Certificate{leaves[i%len(leaves)], root.Cert}, 443); err != nil {
				t.Fatalf("sensor %d observe %d through flaky transport: %v", s, i, err)
			}
		}
	}
	c := flakyClient(t, srv.Addr(), in, "analysis")
	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	if in.Total() == 0 {
		t.Fatal("no faults fired; the plan exercised nothing")
	}
	// Every retried observe re-sent its idempotency ID, so replays after a
	// lost response must not double-count.
	if st.Sessions != observations {
		t.Errorf("sessions = %d, want %d (retries must not duplicate observes)", st.Sessions, observations)
	}
	if n.Sessions() != observations {
		t.Errorf("server notary sessions = %d, want %d", n.Sessions(), observations)
	}
}

func TestClientReconnectsAfterDeadline(t *testing.T) {
	srv, _ := startServer(t)
	root, leaves := testPKI(t)

	// Every dial stalls: the first roundtrip times out, the transport is
	// marked broken, and each retry reconnects — stalling again — until the
	// policy is exhausted.
	in := faultnet.New(faultnet.Plan{Seed: 7, StallProb: 1, StallFor: 5 * time.Millisecond})
	dial := in.DialFunc("sensor", "notary", func(ctx context.Context, addr string) (net.Conn, error) {
		d := &net.Dialer{Timeout: 5 * time.Second}
		return d.DialContext(ctx, "tcp", addr)
	})
	c, err := NewClient(context.Background(), srv.Addr(),
		WithTimeout(50*time.Millisecond),
		WithDialFunc(dial),
		WithRetryPolicy(resilient.NewRetrier(resilient.Policy{
			MaxAttempts: 2,
			BaseDelay:   time.Millisecond,
			MaxDelay:    time.Millisecond,
		}, 0)),
		WithoutBreaker())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	err = c.Observe(context.Background(), []*x509.Certificate{leaves[0], root.Cert}, 443)
	if err == nil {
		t.Fatal("observe through an always-stalling transport should fail")
	}
	// Dials: the eager connect, then one reconnect for the second attempt —
	// the first attempt reuses the eager transport, and the stall poisons
	// each one before a response lands.
	dials := in.Dials()
	if len(dials) != 1 || dials[0].Target != "notary" || dials[0].Count != 2 {
		t.Errorf("dials = %+v, want notary dialed exactly twice", dials)
	}
	// The deadline failure left the transport marked broken: the next
	// round trip's first attempt reconnects instead of reusing it.
	if err := c.Observe(context.Background(), []*x509.Certificate{leaves[0], root.Cert}, 443); err == nil {
		t.Fatal("observe through an always-stalling transport should fail")
	}
	if dials := in.Dials(); len(dials) != 1 || dials[0].Count != 4 {
		t.Errorf("dials = %+v, want both attempts of the second observe to redial", dials)
	}

	// A healthy transport heals the client: swap the dialer is not possible,
	// so route around the injector by observing that a fresh client works.
	c2, err := NewClient(context.Background(), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := c2.Observe(context.Background(), []*x509.Certificate{leaves[0], root.Cert}, 443); err != nil {
		t.Fatal(err)
	}
}
