package collect

import (
	"context"
	"fmt"
	"time"

	"tangledmass/internal/netalyzr"
	"tangledmass/internal/wire"
)

// Client submits session reports over a wire.Client, which owns the
// transport discipline: sequential use only, reconnect after any
// mid-exchange failure, and idempotency IDs the server deduplicates, so a
// retry after a lost response does not double-count.
type Client struct {
	wc *wire.Client
}

// NewClient connects to a collector. The initial connect already runs
// under the retry policy, bounded by ctx. One round trip is bounded by a
// minute. Options: WithRetryPolicy, WithDialFunc, WithObserver.
func NewClient(ctx context.Context, addr string, opts ...Option) (*Client, error) {
	op := buildOptions(opts)
	wc, err := wire.Dial(ctx, addr, wire.ClientConfig{
		Name:       "collect",
		Dial:       op.dial,
		Retry:      op.retry,
		Timeout:    time.Minute,
		Observer:   op.observer,
		Dials:      op.observer.Counter(KeyClientDials),
		DialErrors: op.observer.Counter(KeyClientDialErrors),
	})
	if err != nil {
		return nil, err
	}
	return &Client{wc: wc}, nil
}

// Close releases the connection.
func (c *Client) Close() error { return c.wc.Close() }

// roundTrip sends one request under a fresh idempotency ID.
func (c *Client) roundTrip(ctx context.Context, req request) (response, error) {
	req.ID = c.wc.NextID()
	return wire.RoundTrip[response](ctx, c.wc, &req)
}

// Submit sends one session report.
func (c *Client) Submit(ctx context.Context, r *netalyzr.Report) error {
	w := FromReport(r)
	_, err := c.roundTrip(ctx, request{Op: "submit", Report: &w})
	return err
}

// SubmitWire sends a pre-converted report.
func (c *Client) SubmitWire(ctx context.Context, w WireReport) error {
	_, err := c.roundTrip(ctx, request{Op: "submit", Report: &w})
	return err
}

// Summary fetches the collector's aggregate.
func (c *Client) Summary(ctx context.Context) (Summary, error) {
	resp, err := c.roundTrip(ctx, request{Op: "summary"})
	if err != nil {
		return Summary{}, err
	}
	if resp.Summary == nil {
		return Summary{}, fmt.Errorf("collect: summary missing from response")
	}
	return *resp.Summary, nil
}
