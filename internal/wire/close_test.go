package wire_test

import (
	"context"
	"testing"
	"time"

	"tangledmass/internal/certgen"
	"tangledmass/internal/collect"
	"tangledmass/internal/notary"
	"tangledmass/internal/notarynet"
)

// TestCloseWithIdleClient: both servers built on wire return from Close
// within a second while a client is attached and idle, instead of waiting
// out the two-minute read deadline.
func TestCloseWithIdleClient(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		name string
		// start boots a server, attaches a client that has completed one
		// round trip (so its handler is now blocked reading the next
		// request), and returns the server's Close and the client's.
		start func(t *testing.T) (closeServer, closeClient func() error)
	}{
		{"collect", func(t *testing.T) (func() error, func() error) {
			srv, err := collect.NewServer("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			c, err := collect.NewClient(ctx, srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.Summary(ctx); err != nil {
				t.Fatal(err)
			}
			return srv.Close, c.Close
		}},
		{"notarynet", func(t *testing.T) (func() error, func() error) {
			srv, err := notarynet.NewServer(notary.New(certgen.Epoch), "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			c, err := notarynet.NewClient(ctx, srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.Stats(ctx); err != nil {
				t.Fatal(err)
			}
			return srv.Close, c.Close
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			closeServer, closeClient := tc.start(t)
			defer closeClient()
			done := make(chan error, 1)
			go func() { done <- closeServer() }()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(time.Second):
				t.Fatal("Close blocked on an idle client for over 1s")
			}
		})
	}
}
