package notarynet

import (
	"context"
	"crypto/x509"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"tangledmass/internal/cauniverse"
	"tangledmass/internal/certgen"
	"tangledmass/internal/notary"
	"tangledmass/internal/resilient"
	"tangledmass/internal/rootstore"
)

// quickRetry keeps failure-path tests fast: one attempt, no backoff.
func quickRetry() *resilient.Retrier {
	return resilient.NewRetrier(resilient.Policy{MaxAttempts: 1}, 0)
}

func startServer(t *testing.T) (*Server, *notary.Notary) {
	t.Helper()
	n := notary.New(certgen.Epoch)
	srv, err := NewServer(n, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, n
}

func testPKI(t *testing.T) (root *certgen.Issued, leaves []*x509.Certificate) {
	t.Helper()
	g := certgen.NewGenerator(90)
	root, err := g.SelfSignedCA("Net Root")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		leaf, err := g.Leaf(root, string(rune('a'+i))+".example.com")
		if err != nil {
			t.Fatal(err)
		}
		leaves = append(leaves, leaf.Cert)
	}
	return root, leaves
}

func TestObserveAndStats(t *testing.T) {
	srv, n := startServer(t)
	root, leaves := testPKI(t)
	c, err := NewClient(context.Background(), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for _, leaf := range leaves {
		if err := c.Observe(context.Background(), []*x509.Certificate{leaf, root.Cert}, 443); err != nil {
			t.Fatal(err)
		}
	}
	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Sessions != 4 {
		t.Errorf("sessions = %d, want 4", st.Sessions)
	}
	if st.Unique != 5 {
		t.Errorf("unique = %d, want 5 (4 leaves + root)", st.Unique)
	}
	// Server-side notary agrees.
	if n.NumUnique() != 5 {
		t.Errorf("server notary unique = %d", n.NumUnique())
	}
	snap := srv.Snapshot()
	if got := snap.Counters[KeyIngestTotal]; got != 4 {
		t.Errorf("%s = %d, want 4", KeyIngestTotal, got)
	}
	if got := snap.Counters[KeyQueryTotal]; got != 1 {
		t.Errorf("%s = %d, want 1 (the stats call)", KeyQueryTotal, got)
	}
}

func TestHasRecordRoundTrip(t *testing.T) {
	srv, _ := startServer(t)
	root, leaves := testPKI(t)
	c, err := NewClient(context.Background(), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	got, err := c.HasRecord(context.Background(), leaves[0])
	if err != nil {
		t.Fatal(err)
	}
	if got {
		t.Error("unobserved cert should not be on record")
	}
	if err := c.ObserveCA(context.Background(), root.Cert, 443); err != nil {
		t.Fatal(err)
	}
	got, err = c.HasRecord(context.Background(), root.Cert)
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Error("observed CA should be on record")
	}
}

func TestRemoteValidate(t *testing.T) {
	srv, _ := startServer(t)
	root, leaves := testPKI(t)
	c, err := NewClient(context.Background(), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, leaf := range leaves {
		if err := c.Observe(context.Background(), []*x509.Certificate{leaf, root.Cert}, 443); err != nil {
			t.Fatal(err)
		}
	}
	// A store with the root plus an unrelated root.
	g := certgen.NewGenerator(91)
	other, _ := g.SelfSignedCA("Unrelated Root")
	store := rootstore.New("remote")
	store.Add(root.Cert)
	store.Add(other.Cert)

	res, err := c.Validate(context.Background(), store)
	if err != nil {
		t.Fatal(err)
	}
	if res.Validated != 4 {
		t.Errorf("validated = %d, want 4", res.Validated)
	}
	if len(res.PerRoot) != 2 || res.PerRoot[0] != 4 || res.PerRoot[1] != 0 {
		t.Errorf("per-root = %v, want [4 0]", res.PerRoot)
	}
}

func TestPipelinedRequests(t *testing.T) {
	srv, _ := startServer(t)
	root, leaves := testPKI(t)
	c, err := NewClient(context.Background(), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 50; i++ {
		if err := c.Observe(context.Background(), []*x509.Certificate{leaves[i%len(leaves)], root.Cert}, 443); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
	}
	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Sessions != 50 {
		t.Errorf("sessions = %d, want 50", st.Sessions)
	}
}

func TestConcurrentSensors(t *testing.T) {
	srv, n := startServer(t)
	root, leaves := testPKI(t)
	var wg sync.WaitGroup
	for s := 0; s < 8; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := NewClient(context.Background(), srv.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for i := 0; i < 25; i++ {
				if err := c.Observe(context.Background(), []*x509.Certificate{leaves[i%len(leaves)], root.Cert}, 993); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n.Sessions() != 200 {
		t.Errorf("sessions = %d, want 200", n.Sessions())
	}
}

func TestProtocolErrors(t *testing.T) {
	srv, _ := startServer(t)
	c, err := NewClient(context.Background(), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Unknown op.
	if _, err := c.roundTrip(context.Background(), Request{Op: "explode"}); err == nil || !strings.Contains(err.Error(), "unknown op") {
		t.Errorf("unknown op error = %v", err)
	}
	// Bad certificate payload.
	if _, err := c.roundTrip(context.Background(), Request{Op: "has_record", Cert: "!!!"}); err == nil {
		t.Error("bad base64 should error")
	}
	if _, err := c.roundTrip(context.Background(), Request{Op: "observe", Chain: []string{"aGVsbG8="}}); err == nil {
		t.Error("non-certificate DER should error")
	}
	// Empty chain / empty roots.
	if _, err := c.roundTrip(context.Background(), Request{Op: "observe"}); err == nil {
		t.Error("empty chain should error")
	}
	if _, err := c.roundTrip(context.Background(), Request{Op: "validate"}); err == nil {
		t.Error("empty root set should error")
	}
	// The connection survives errors: a valid request still works.
	if _, err := c.Stats(context.Background()); err != nil {
		t.Errorf("connection should survive protocol errors: %v", err)
	}
}

func TestMalformedJSONLine(t *testing.T) {
	srv, _ := startServer(t)
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("this is not json\n")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1024)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(buf[:n]), "bad request") {
		t.Errorf("response = %s", buf[:n])
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	srv, _ := startServer(t)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
	if _, err := NewClient(context.Background(), srv.Addr(), WithRetryPolicy(quickRetry())); err == nil {
		t.Error("dial after close should fail")
	}
}

// TestServerCloseUnblocksIdleClient: Close returns promptly while a sensor
// is attached and idle, instead of waiting out the server's read deadline.
func TestServerCloseUnblocksIdleClient(t *testing.T) {
	srv, _ := startServer(t)
	c, err := NewClient(context.Background(), srv.Addr(), WithRetryPolicy(quickRetry()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// One round trip guarantees the handler is registered and now blocked
	// reading the next request.
	if _, err := c.Stats(context.Background()); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("Close blocked on an idle client for over 1s")
	}
}

func TestLargeValidateRequest(t *testing.T) {
	// A full 262-root aggregated store crosses the wire in one line.
	u := cauniverse.Default()
	n := notary.New(certgen.Epoch)
	srv, err := NewServer(n, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := NewClient(context.Background(), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := c.Validate(context.Background(), u.AggregatedAndroid())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerRoot) != u.AggregatedAndroid().Len() {
		t.Errorf("per-root entries = %d, want %d", len(res.PerRoot), u.AggregatedAndroid().Len())
	}
	if res.Validated != 0 {
		t.Errorf("empty notary validated %d", res.Validated)
	}
}
