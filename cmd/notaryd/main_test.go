package main

import (
	"bytes"
	"context"
	"crypto/x509"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"tangledmass/internal/certgen"
	"tangledmass/internal/notary"
	"tangledmass/internal/notarynet"
	"tangledmass/internal/obs"
)

// lifecycleChains builds a few observation chains for daemon tests.
func lifecycleChains(t *testing.T, n int) [][]*x509.Certificate {
	t.Helper()
	g := certgen.NewGenerator(90)
	root, err := g.SelfSignedCA("Daemon Root")
	if err != nil {
		t.Fatal(err)
	}
	chains := make([][]*x509.Certificate, n)
	for i := range chains {
		leaf, err := g.Leaf(root, fmt.Sprintf("daemon%d.example.com", i))
		if err != nil {
			t.Fatal(err)
		}
		chains[i] = []*x509.Certificate{leaf.Cert, root.Cert}
	}
	return chains
}

func bootTestDaemon(t *testing.T, dir string) *daemon {
	t.Helper()
	d, err := boot(config{
		addr:       "127.0.0.1:0",
		dataDir:    dir,
		checkpoint: 50 * time.Millisecond,
		prefeed:    0,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDaemonLifecycle: boot with a data dir, ingest over the wire, drain
// on shutdown, reboot, and recover everything — then prove the restart is
// byte-exact by comparing canonical snapshots, and that the journaled
// write path (not the in-memory shortcut) served the ingest.
func TestDaemonLifecycle(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "notary-data")
	chains := lifecycleChains(t, 6)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	d := bootTestDaemon(t, dir)
	client, err := notarynet.NewClient(ctx, d.srv.Addr(), notarynet.WithoutBreaker())
	if err != nil {
		t.Fatal(err)
	}
	for _, chain := range chains {
		if err := client.Observe(ctx, chain, 443); err != nil {
			t.Fatal(err)
		}
	}
	if err := client.ObserveCA(ctx, chains[0][1], 8883); err != nil {
		t.Fatal(err)
	}
	stats, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Sessions != int64(len(chains))+1 {
		t.Fatalf("sessions = %d, want %d", stats.Sessions, len(chains)+1)
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	var before bytes.Buffer
	if err := d.db.Notary().Save(&before); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}

	// The shutdown checkpoint must leave a clean directory.
	report, err := notary.FsckDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Healthy() {
		t.Fatalf("post-shutdown fsck: %v", report.Issues)
	}

	// Reboot: recovery must reconstruct the exact database.
	d2 := bootTestDaemon(t, dir)
	defer d2.Close()
	var after bytes.Buffer
	if err := d2.db.Notary().Save(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatal("restart changed the database bytes")
	}
	if got := d2.db.Notary().Sessions(); got != int64(len(chains))+1 {
		t.Fatalf("recovered sessions = %d, want %d", got, len(chains)+1)
	}
}

// TestDaemonRecoversWithoutGracefulShutdown kills the daemon process state
// without Close — the journal alone must carry the acknowledged
// observations into the next boot.
func TestDaemonRecoversWithoutGracefulShutdown(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "notary-data")
	chains := lifecycleChains(t, 4)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	d := boot2(t, config{addr: "127.0.0.1:0", dataDir: dir, prefeed: 0})
	client, err := notarynet.NewClient(ctx, d.srv.Addr(), notarynet.WithoutBreaker())
	if err != nil {
		t.Fatal(err)
	}
	for _, chain := range chains {
		if err := client.Observe(ctx, chain, 993); err != nil {
			t.Fatal(err)
		}
	}
	_ = client.Close()
	// Simulated crash: tear down the listener so the port frees, but skip
	// the final checkpoint entirely.
	_ = d.srv.Close()

	d2 := bootTestDaemon(t, dir)
	defer d2.Close()
	if got := d2.db.Notary().Sessions(); got != int64(len(chains)) {
		t.Fatalf("recovered sessions = %d, want %d (journal replay)", got, len(chains))
	}
	if !d2.db.Notary().HasRecord(chains[0][0]) {
		t.Fatal("acknowledged leaf missing after crash recovery")
	}
}

func boot2(t *testing.T, cfg config) *daemon {
	t.Helper()
	d, err := boot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDaemonPrefeedOnlyWhenEmpty: a recovered non-empty database must not
// be prefed again.
func TestDaemonPrefeedOnlyWhenEmpty(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "notary-data")
	d := boot2(t, config{addr: "127.0.0.1:0", dataDir: dir, prefeed: 60, seed: 3})
	fed := d.db.Notary().Sessions()
	if fed == 0 {
		t.Fatal("prefeed produced no sessions")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2 := boot2(t, config{addr: "127.0.0.1:0", dataDir: dir, prefeed: 60, seed: 3})
	defer d2.Close()
	if got := d2.db.Notary().Sessions(); got != fed {
		t.Fatalf("sessions after reboot = %d, want %d (no double prefeed)", got, fed)
	}
}

// TestDaemonPeriodicCheckpoint: with a short interval, generations must
// advance without any writes — the checkpoint loop is alive.
func TestDaemonPeriodicCheckpoint(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "notary-data")
	d := bootTestDaemon(t, dir)
	defer d.Close()
	start := d.db.Gen()
	deadline := time.Now().Add(10 * time.Second)
	for d.db.Gen() == start {
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint within 10s at a 50ms interval")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDaemonInMemoryMode: without -data the daemon serves exactly as
// before, with no files written.
func TestDaemonInMemoryMode(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	d := boot2(t, config{addr: "127.0.0.1:0", prefeed: 0})
	defer d.Close()
	if d.db != nil {
		t.Fatal("in-memory mode should have no durable DB")
	}
	client, err := notarynet.NewClient(ctx, d.srv.Addr(), notarynet.WithoutBreaker())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	chains := lifecycleChains(t, 1)
	if err := client.Observe(ctx, chains[0], 443); err != nil {
		t.Fatal(err)
	}
	stats, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Sessions != 1 {
		t.Fatalf("sessions = %d, want 1", stats.Sessions)
	}
}

// TestDaemonCloseDrainsUnderIdleTap: a tap sensor holds one notarynet
// client for its whole life and is idle between sightings. Shutting the
// daemon down must not wait out that connection's read deadline: Close
// (drain, final checkpoint, journal release) finishes within a second.
func TestDaemonCloseDrainsUnderIdleTap(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "notary-data")
	chains := lifecycleChains(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	d := bootTestDaemon(t, dir)
	// The client exactly as cmd/tapd builds it.
	tapClient, err := notarynet.NewClient(ctx, d.srv.Addr(), notarynet.WithObserver(obs.New()))
	if err != nil {
		t.Fatal(err)
	}
	defer tapClient.Close()
	for _, chain := range chains {
		if err := tapClient.Observe(ctx, chain, 443); err != nil {
			t.Fatal(err)
		}
	}

	done := make(chan error, 1)
	go func() { done <- d.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("graceful shutdown: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("daemon Close blocked on an idle tap connection for over 1s")
	}
	report, err := notary.FsckDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Healthy() {
		t.Fatalf("post-shutdown fsck: %v", report.Issues)
	}
}
