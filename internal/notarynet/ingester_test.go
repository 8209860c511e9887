package notarynet

import (
	"context"
	"crypto/x509"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"tangledmass/internal/certgen"
	"tangledmass/internal/faultfs"
	"tangledmass/internal/notary"
)

// gateIngester rejects writes while closed — the shape of a durable
// ingester whose journal is fenced after a commit failure.
type gateIngester struct {
	n      *notary.Notary
	reject bool
}

var errGateClosed = errors.New("journal fenced")

func (g *gateIngester) Observe(o notary.Observation) error {
	if g.reject {
		return errGateClosed
	}
	g.n.Observe(o)
	return nil
}

func (g *gateIngester) ObserveCA(cert *x509.Certificate, port int) error {
	if g.reject {
		return errGateClosed
	}
	g.n.ObserveCA(cert, port)
	return nil
}

// TestIngesterErrorSurfacesAndRetrySucceeds: a failing write path must
// turn into a protocol error (not a silent drop), must not poison the
// idempotency window — the retry with the SAME ID has to be processed,
// not absorbed as a duplicate — and must count in the rejected metric.
func TestIngesterErrorSurfacesAndRetrySucceeds(t *testing.T) {
	n := notary.New(certgen.Epoch)
	gate := &gateIngester{n: n}
	srv, err := NewServer(n, "127.0.0.1:0", WithIngester(gate))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	root, leaves := testPKI(t)
	chain := []*x509.Certificate{leaves[0], root.Cert}

	gate.reject = true
	req := Request{Op: "observe", ID: "retry-1", Chain: EncodeChain(chain), Port: 443}
	resp := srv.dispatch(req)
	if resp.OK || !strings.Contains(resp.Error, "journal fenced") {
		t.Fatalf("rejected observe = %+v, want the ingester error", resp)
	}
	if n.Sessions() != 0 {
		t.Fatal("rejected observation must not reach the database")
	}
	if got := srv.Snapshot().Counters[KeyIngestRejected]; got != 1 {
		t.Errorf("rejected counter = %d, want 1", got)
	}

	// The fence lifts; the sensor retries with the same idempotency ID.
	gate.reject = false
	resp = srv.dispatch(req)
	if !resp.OK {
		t.Fatalf("retry after fence = %+v, want OK", resp)
	}
	if n.Sessions() != 1 {
		t.Fatalf("sessions = %d, want 1 (retry processed, not deduplicated)", n.Sessions())
	}
	// A second, genuine duplicate IS absorbed.
	resp = srv.dispatch(req)
	if !resp.OK {
		t.Fatalf("duplicate = %+v, want OK", resp)
	}
	if n.Sessions() != 1 {
		t.Fatalf("sessions = %d, want 1 (duplicate absorbed)", n.Sessions())
	}

	// Same contract for CA sightings.
	gate.reject = true
	caReq := Request{Op: "observe_ca", ID: "retry-ca", Cert: EncodeCert(root.Cert), Port: 8883}
	if resp := srv.dispatch(caReq); resp.OK {
		t.Fatal("rejected observe_ca should error")
	}
	gate.reject = false
	if resp := srv.dispatch(caReq); !resp.OK {
		t.Fatalf("observe_ca retry = %+v, want OK", resp)
	}
	if n.Sessions() != 2 {
		t.Fatalf("sessions = %d, want 2", n.Sessions())
	}
}

// TestDurableIngesterEndToEnd wires a real notary.DB as the server's
// ingester and checks an over-the-wire observation lands in the journal:
// after a reboot with no graceful shutdown, the observation survives.
func TestDurableIngesterEndToEnd(t *testing.T) {
	dir := t.TempDir()
	db, err := notary.Open(faultfs.Disk, dir, certgen.Epoch)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(db.Notary(), "127.0.0.1:0", WithIngester(db))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	root, leaves := testPKI(t)

	cl, err := NewClient(context.Background(), srv.Addr(), WithoutBreaker())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Observe(context.Background(), []*x509.Certificate{leaves[1], root.Cert}, 993); err != nil {
		t.Fatal(err)
	}
	// No db.Close(): the acknowledgment alone must be durable.
	srv.Close()

	rdb, err := notary.Open(faultfs.Disk, dir, certgen.Epoch)
	if err != nil {
		t.Fatal(err)
	}
	defer rdb.Close()
	if got := rdb.Notary().Sessions(); got != 1 {
		t.Fatalf("recovered sessions = %d, want 1", got)
	}
	if !rdb.Notary().HasRecord(leaves[1]) {
		t.Fatal("acknowledged observation missing after reboot")
	}
}

// blockingIngester holds its first Observe until released and then fails
// it with firstErr — a slow WAL commit that ends in failure. Later calls
// go straight through.
type blockingIngester struct {
	n        *notary.Notary
	entered  chan struct{}
	release  chan struct{}
	firstErr error
	calls    int
}

func (b *blockingIngester) Observe(o notary.Observation) error {
	b.calls++
	if b.calls == 1 {
		close(b.entered)
		<-b.release
		return b.firstErr
	}
	b.n.Observe(o)
	return nil
}

func (b *blockingIngester) ObserveCA(cert *x509.Certificate, port int) error {
	b.n.ObserveCA(cert, port)
	return nil
}

// TestDuplicateWaitsForInFlightIngest: a retry that arrives on another
// connection while the first attempt's commit is still running must not
// be acknowledged before that commit's outcome is known. When the commit
// then fails, the retry applies the observation itself, so every ack
// stands for a recorded observation.
func TestDuplicateWaitsForInFlightIngest(t *testing.T) {
	n := notary.New(certgen.Epoch)
	ing := &blockingIngester{n: n, entered: make(chan struct{}), release: make(chan struct{}), firstErr: errGateClosed}
	srv, err := NewServer(n, "127.0.0.1:0", WithIngester(ing))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	root, leaves := testPKI(t)
	req := Request{Op: "observe", ID: "slow-1", Chain: EncodeChain([]*x509.Certificate{leaves[0], root.Cert}), Port: 443}

	first := make(chan Response, 1)
	go func() { first <- srv.dispatch(req) }()
	<-ing.entered
	retry := make(chan Response, 1)
	go func() { retry <- srv.dispatch(req) }()
	// Give the retry time to reach the idempotency window while the first
	// commit is still blocked.
	time.Sleep(50 * time.Millisecond)
	close(ing.release)

	if resp := <-first; resp.OK {
		t.Fatalf("first attempt = %+v, want the commit failure", resp)
	}
	resp := <-retry
	if recorded := n.HasRecord(leaves[0]); resp.OK != recorded || !recorded {
		t.Fatalf("retry ok=%v, recorded=%v; an ack must mean the observation was recorded", resp.OK, recorded)
	}
	if n.Sessions() != 1 {
		t.Fatalf("sessions = %d, want 1", n.Sessions())
	}
}

// TestForgottenIDRemarkSurvivesWindow: an ID whose first ingest failed and
// whose retry succeeded must stay deduplicated for a full window of later
// requests — the forgotten first mark must not age out the live one.
func TestForgottenIDRemarkSurvivesWindow(t *testing.T) {
	n := notary.New(certgen.Epoch)
	gate := &gateIngester{n: n}
	srv, err := NewServer(n, "127.0.0.1:0", WithIngester(gate))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	root, _ := testPKI(t)
	req := Request{Op: "observe_ca", ID: "remark", Cert: EncodeCert(root.Cert), Port: 8883}

	gate.reject = true
	if resp := srv.dispatch(req); resp.OK {
		t.Fatal("rejected observe_ca should error")
	}
	gate.reject = false
	if resp := srv.dispatch(req); !resp.OK {
		t.Fatalf("retry = %+v, want OK", resp)
	}
	// One window's worth of other IDs, minus the live mark's own slot.
	const others = 4095
	for i := 0; i < others; i++ {
		other := req
		other.ID = fmt.Sprintf("other-%d", i)
		if resp := srv.dispatch(other); !resp.OK {
			t.Fatalf("other %d = %+v", i, resp)
		}
	}
	before := n.Sessions()
	if resp := srv.dispatch(req); !resp.OK {
		t.Fatalf("late duplicate = %+v, want OK", resp)
	}
	if got := n.Sessions(); got != before {
		t.Fatalf("late duplicate of %q was applied again (sessions %d -> %d)", req.ID, before, got)
	}
}
