package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"tangledmass/internal/cauniverse"
	"tangledmass/internal/certgen"
	"tangledmass/internal/faultfs"
	"tangledmass/internal/notary"
	"tangledmass/internal/notarynet"
	"tangledmass/internal/notaryshard"
	"tangledmass/internal/obs"
	"tangledmass/internal/tlsnet"
)

// The durable-ingest load. No traffic record fixes its mix, so each part
// is a stated choice, and the run prints what it offered.
const (
	ingestShards = 2
	ingestConns  = 2
	// prefedLeaves are fed during set-up: the store's known certificates.
	prefedLeaves = 2000
	// ingestBatch is the observations per observe_batch request, a
	// quarter of loadgen's default of 64.
	ingestBatch = 16
	// newLeafEvery: one observation in 50 (2%) is a certificate's first
	// sighting. That is far above the ICSI Notary's lifetime share (1.9M
	// certificates in 66B sessions), so every step exercises the insert
	// path beside the update path, while the 3,840 fresh leaves a 20 s run
	// needs add only about 1.2 s of signing to set-up.
	newLeafEvery = 50
	// readsPerWrite is how many has_record requests accompany each
	// observe_batch request, so half of the point requests are reads.
	readsPerWrite = 1
	// statsPerS is the stats request rate. Each stats re-merges every
	// shard after a write, about 10 ms of CPU; four a second keep that
	// near a twentieth of one core, a dashboard's poll rather than load.
	statsPerS = 4
	// refShare is the share of the measured seconds spent at the
	// reference rate, the ladder's first step; the other steps share the
	// rest.
	refShare = 0.6
	// latencyLimitMs bounds a ladder step's observe_batch p99. At 150 ms
	// (the loadgen SLO gate's default) a step below capacity failed in 2
	// of 30 runs when a busy host stalled it though no backlog grew;
	// 250 ms keeps the verdict on capacity.
	latencyLimitMs = 250
	// drainGrace is how long after a step's end its queued requests may
	// still be sent. It is far above the latency limit, so that only a
	// stall a user would see as an outage leaves a reference-rate request
	// unsent, and short enough that an overloaded step ends.
	drainGrace = 2 * time.Second
	// maxLateShare is the share of the latency limit the generator's p99
	// lateness may reach before the run is rejected: beyond it the
	// generator, not the server, decides when requests go out.
	maxLateShare = 0.10
)

// ladderRatesObsS are the open loop's offered observation rates, run in
// ascending order. The first is the reference rate, which ingest latency
// is reported at and which keeps both cores busy: at 2,000 obs/s the
// latency was dominated, and made noisy, by cores waking from idle. The
// steps above it lie inside the capacity measured on a shared 2-core
// machine, which wandered from about 10k to 23k obs/s between runs as the
// host got busy; a step above 23k would only ever fail.
var ladderRatesObsS = []float64{6000, 12000, 18000}

// durableStore is the set-up's product: a recovered 2-shard store and the
// leaf pool the load draws from.
type durableStore struct {
	dir       string
	cl        *notaryshard.Cluster
	pool      []tlsnet.Leaf
	prefed    []bool // prefed[i]: pool[i] was fed during set-up
	recoverMs float64
}

// setupDurable builds the leaf pool, prefeeds a fresh durable cluster the
// way notaryd does, checkpoints and closes it, and reopens it as a
// restarted daemon would.
func setupDurable(c *childCtx) (*durableStore, error) {
	u, err := cauniverse.New(c.seed)
	if err != nil {
		return nil, fmt.Errorf("building universe: %w", err)
	}
	fed, err := tlsnet.NewWorld(tlsnet.Config{Seed: c.seed, Universe: u, NumLeaves: prefedLeaves})
	if err != nil {
		return nil, fmt.Errorf("building prefed TLS internet: %w", err)
	}
	fresh, err := tlsnet.NewWorld(tlsnet.Config{Seed: c.seed + 1, Universe: u, NumLeaves: freshLeavesFor(c.seconds)})
	if err != nil {
		return nil, fmt.Errorf("building fresh TLS internet: %w", err)
	}
	dir := filepath.Join(c.dir, "notary")
	cl, err := notaryshard.Open(faultfs.Disk, dir, certgen.Epoch, ingestShards, notaryshard.WithWorkers(analysisWorkers))
	if err != nil {
		return nil, fmt.Errorf("opening store: %w", err)
	}
	if err := tlsnet.FeedTo(fed, cl); err != nil {
		_ = cl.Close()
		return nil, fmt.Errorf("prefeeding store: %w", err)
	}
	if err := cl.Checkpoint(); err != nil {
		_ = cl.Close()
		return nil, fmt.Errorf("checkpointing store: %w", err)
	}
	if err := cl.Close(); err != nil {
		return nil, fmt.Errorf("closing store: %w", err)
	}
	start := time.Now()
	cl, err = notaryshard.Open(faultfs.Disk, dir, certgen.Epoch, ingestShards, notaryshard.WithWorkers(analysisWorkers))
	if err != nil {
		return nil, fmt.Errorf("reopening store: %w", err)
	}
	s := &durableStore{dir: dir, cl: cl, recoverMs: ms(time.Since(start))}

	s.pool = append(append(s.pool, fed.Leaves()...), fresh.Leaves()...)
	s.prefed = make([]bool, len(s.pool))
	for i := range fed.Leaves() {
		s.prefed[i] = true
	}
	return s, nil
}

// ingestChild runs one process of the durable-ingest workload. A set-up
// child sets the store up and closes it. The measuring child is the
// sensor side: it starts the notary as a server process of its own, as a
// daemon would run, and drives the open-loop load at it, so the load
// generator never waits for a scheduler slot the server holds.
func ingestChild(ctx context.Context, c *childCtx) (*childResult, error) {
	switch c.role {
	case "setup":
		cpu0 := cpuSeconds()
		s, err := setupDurable(c)
		if err != nil {
			return nil, err
		}
		r := &childResult{SetupS: cpuSeconds() - cpu0, Layers: map[string]float64{"notary.recover_ms": s.recoverMs}}
		return r, s.cl.Close()
	case "serve":
		return &childResult{}, serveDurable(c)
	default:
		return loadDurable(ctx, c)
	}
}

// poolLeaf is one pool leaf as the server process hands it to the load
// process, in wire encoding.
type poolLeaf struct {
	Chain  []string `json:"chain"`
	Port   int      `json:"port"`
	Prefed bool     `json:"prefed"`
}

// serverHello is the server process's first line on standard output.
type serverHello struct {
	Addr      string  `json:"addr"`
	SetupS    float64 `json:"setup_s"` // CPU seconds
	RecoverMs float64 `json:"recover_ms"`
	Sessions  int64   `json:"sessions"`
	StoreDir  string  `json:"store_dir"`
	PoolFile  string  `json:"pool_file"`
}

// serverState is the server process's answer to each line it reads.
type serverState struct {
	Counters   map[string]int64      `json:"counters"`
	ShardApply obs.HistogramSnapshot `json:"shard_apply"`
	AppliesMs  []float64             `json:"applies_ms,omitempty"`
	RSSMB      float64               `json:"rss_mb"`
	CPUS       float64               `json:"cpu_s"`
}

// serveDurable is durable-ingest's notary daemon: it sets the store up,
// serves it, answers every line on standard input with its counters, and
// runs until standard input closes or it is killed. A traced run serves
// the cluster through the apply-timing decorator.
func serveDurable(c *childCtx) error {
	cpu0 := cpuSeconds()
	s, err := setupDurable(c)
	if err != nil {
		return err
	}
	setupCPU := cpuSeconds() - cpu0
	var view notarynet.View = s.cl
	var applies *applyLog
	if c.trace == 1 {
		applies = &applyLog{}
		view = timedCluster{Cluster: s.cl, log: applies}
	}
	srv, err := notarynet.NewServer(view, "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("starting notary server: %w", err)
	}
	defer srv.Close()

	poolFile := filepath.Join(c.dir, "pool.jsonl")
	if err := writePool(poolFile, s); err != nil {
		return err
	}
	enc := json.NewEncoder(c.stdout)
	if err := enc.Encode(serverHello{Addr: srv.Addr(), SetupS: setupCPU, RecoverMs: s.recoverMs,
		Sessions: s.cl.Sessions(), StoreDir: s.dir, PoolFile: poolFile}); err != nil {
		return fmt.Errorf("announcing server: %w", err)
	}
	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		snap := s.cl.Snapshot().Merge(srv.Snapshot())
		st := serverState{
			Counters:   snap.Counters,
			ShardApply: snap.Hists[notaryshard.KeyShardIngestLatency],
			AppliesMs:  applies.all(),
			RSSMB:      peakRSSMB(),
			CPUS:       cpuSeconds(),
		}
		if err := enc.Encode(st); err != nil {
			return fmt.Errorf("reporting server state: %w", err)
		}
	}
	return nil
}

// serverProc is the running server process, seen from the load process.
type serverProc struct {
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	stdout *bufio.Reader
	killed bool
}

func startServer(ctx context.Context, c *childCtx) (*serverProc, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locating own executable: %w", err)
	}
	cmd := childCommand(ctx, self, c.args, "serve", filepath.Join(c.dir, "serve"))
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, fmt.Errorf("server stdin: %w", err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("server stdout: %w", err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting server process: %w", err)
	}
	return &serverProc{cmd: cmd, stdin: stdin, stdout: bufio.NewReaderSize(stdout, 1<<20)}, nil
}

// read decodes the server's next line into v.
func (p *serverProc) read(v any) error {
	line, err := p.stdout.ReadBytes('\n')
	if err != nil {
		return fmt.Errorf("reading from server process: %w", err)
	}
	if err := json.Unmarshal(line, v); err != nil {
		return fmt.Errorf("decoding server line: %w", err)
	}
	return nil
}

// state asks the server for its counters.
func (p *serverProc) state() (serverState, error) {
	var st serverState
	if _, err := io.WriteString(p.stdin, "state\n"); err != nil {
		return st, fmt.Errorf("asking server for its state: %w", err)
	}
	return st, p.read(&st)
}

// kill stops the server the way a crash does, with no checkpoint, and
// waits for it to exit.
func (p *serverProc) kill() {
	if p.killed {
		return
	}
	p.killed = true
	_ = p.cmd.Process.Kill()
	_ = p.cmd.Wait() // the error only reports the kill
}

// loadDurable drives the open-loop load at a server process, one ladder
// step after another, and checks what it acknowledged: the server is
// killed, as a crash would, and its store must reopen with every
// acknowledged observation.
func loadDurable(ctx context.Context, c *childCtx) (*childResult, error) {
	// The generator and each connection's worker get a scheduler slot of
	// their own, so the client side never holds a due request back by a
	// Go scheduling quantum. The server process keeps two.
	runtime.GOMAXPROCS(ingestConns + 1)
	srv, err := startServer(ctx, c)
	if err != nil {
		return nil, err
	}
	defer srv.kill()
	var hello serverHello
	if err := srv.read(&hello); err != nil {
		return nil, err
	}
	pool, prefed, err := readPool(hello.PoolFile)
	if err != nil {
		return nil, err
	}
	load := &openLoop{pool: pool}
	defer load.close()
	for range ingestConns {
		cl, err := notarynet.NewClient(ctx, hello.Addr)
		if err != nil {
			return nil, fmt.Errorf("connecting to notary server: %w", err)
		}
		load.clients = append(load.clients, cl)
	}

	mix := newLeafMix(c.seed, prefed)
	run := plan(c.seconds)
	for _, ph := range run {
		ph.schedule(mix)
	}
	ref := run[0]

	var before, after serverState
	var loadCPU float64
	for _, ph := range run {
		if ph == ref {
			if before, err = srv.state(); err != nil {
				return nil, err
			}
			loadCPU = cpuSeconds()
		}
		load.run(ctx, ph)
		if ph == ref {
			loadCPU = cpuSeconds() - loadCPU
			if after, err = srv.state(); err != nil {
				return nil, err
			}
		}
	}
	load.close()
	final, err := srv.state()
	if err != nil {
		return nil, err
	}
	srv.kill()

	// An op is a request the reference step completed; its CPU cost is
	// the server's and the load generator's.
	rs := ref.summary()
	r := &childResult{
		SetupS:    hello.SetupS,
		RSSMB:     final.RSSMB,
		SamplesMs: rs.writeMs,
		Units:     float64(rs.sent - rs.failed),
		WorkS:     ref.dur.Seconds(),
		CPUS:      after.CPUS - before.CPUS + loadCPU,
	}
	var ackedObs, ackedWrites int
	for _, ph := range run {
		ps := ph.summary()
		r.Attempted += ps.sent
		r.Failed += ps.failed
		ackedObs += ps.ackedObs
		ackedWrites += ps.ackedWrites
	}
	if rs.unsent > 0 || rs.failed > 0 {
		r.Problems = append(r.Problems, fmt.Sprintf("reference rate: %d requests unsent, %d failed", rs.unsent, rs.failed))
	}
	steps := make([]step, len(run))
	for i, ph := range run {
		steps[i] = ph.step()
	}
	best := ladderVerdict(steps, latencyLimitMs)
	for i, st := range steps {
		fmt.Fprintf(os.Stderr, "perfbench: durable-ingest step %d: offered %.0f obs/s (%.1f%% first sightings, %d reads, %d stats), achieved %.1f, p99 %.2f ms, unsent %d, failed %d, growing %v, late p99 %.3f ms\n",
			i, st.RateObsS, 100*run[i].newShare(), run[i].count(opRead), run[i].count(opStats), st.AchievedS, st.P99Ms, st.Unsent, st.Failed, st.Growing, st.LateP99Ms)
		if i <= best && st.LateP99Ms > maxLateShare*latencyLimitMs {
			r.Problems = append(r.Problems, fmt.Sprintf("generator ran %.2f ms late at p99 at %.0f obs/s", st.LateP99Ms, st.RateObsS))
		}
	}
	maxRate := 0.0 // no step met the limit
	if best >= 0 {
		maxRate = steps[best].AchievedS
	}
	r.Problems = append(r.Problems, checkReads(run, prefed)...)
	// The server's count of acknowledged observations must match the
	// clients', decorated or not.
	if got := final.Counters[notarynet.KeyIngestTotal]; got != int64(ackedObs) {
		r.Problems = append(r.Problems, fmt.Sprintf("server acknowledged %d observations, clients %d", got, ackedObs))
	}
	if c.trace == 1 && len(final.AppliesMs) != ackedWrites {
		r.Problems = append(r.Problems, fmt.Sprintf("decorator saw %d batch applies, clients %d acked batches", len(final.AppliesMs), ackedWrites))
	}
	problems, err := checkDurable(hello.StoreDir, pool, hello.Sessions+int64(ackedObs), run)
	if err != nil {
		return nil, err
	}
	r.Problems = append(r.Problems, problems...)

	p, tailMs := tail(rs.writeMs)
	rp, readTail := tail(rs.readMs)
	r.Named = map[string]float64{
		"ingest_p50_ms":                 median(rs.writeMs),
		fmt.Sprintf("ingest_p%g_ms", p): tailMs,
		fmt.Sprintf("read_p%g_ms", rp):  readTail,
		"stats_p50_ms":                  median(rs.statsMs),
		"ingest_max_rate_obs_s":         maxRate,
		"ingest_new_leaf_share":         ref.newShare(),
	}
	if c.trace == 1 {
		r.Layers = ingestLayers(rs, before, after, hello.RecoverMs, run)
	}
	return r, nil
}

// writePool writes the leaf pool for the load process, one leaf per line,
// streamed so the handoff adds little to the server's peak memory.
func writePool(path string, s *durableStore) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating leaf pool: %w", err)
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, l := range s.pool {
		if err := enc.Encode(poolLeaf{Chain: notarynet.EncodeChain(l.Chain), Port: l.Port, Prefed: s.prefed[i]}); err != nil {
			return fmt.Errorf("writing leaf pool: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("writing leaf pool: %w", err)
	}
	return f.Close()
}

// readPool loads the leaf pool the server process wrote.
func readPool(path string) ([]tlsnet.Leaf, []bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("opening leaf pool: %w", err)
	}
	defer f.Close()
	var (
		pool   []tlsnet.Leaf
		prefed []bool
	)
	dec := json.NewDecoder(bufio.NewReader(f))
	for dec.More() {
		var l poolLeaf
		if err := dec.Decode(&l); err != nil {
			return nil, nil, fmt.Errorf("decoding leaf pool: %w", err)
		}
		chain, err := notarynet.DecodeChain(l.Chain)
		if err != nil {
			return nil, nil, fmt.Errorf("decoding pool leaf %d: %w", len(pool), err)
		}
		pool = append(pool, tlsnet.Leaf{Chain: chain, Port: l.Port})
		prefed = append(prefed, l.Prefed)
	}
	return pool, prefed, nil
}

// ingestLayers are the per-layer numbers of the reference rate, with the
// generator's lateness over the whole ladder.
func ingestLayers(rs phaseSummary, before, after serverState, recoverMs float64, run []*phase) map[string]float64 {
	delta := func(key string) float64 { return float64(after.Counters[key] - before.Counters[key]) }
	applies := after.AppliesMs[len(before.AppliesMs):]
	late := 0.0
	for _, ph := range run {
		late = max(late, ph.summary().lateMaxMs)
	}
	return map[string]float64{
		"client.queue_wait_ms":         quantile(rs.queueWaitMs, 0.99),
		"router.apply_ms":              median(applies),
		"wire.overhead_ms":             mean(rs.rttMs) - mean(applies),
		"shard.apply_p99_ms":           histDelta(after.ShardApply, before.ShardApply).Quantile(0.99),
		"wal.fsyncs_per_request":       ratio(delta(notary.KeyWALFsyncs), float64(rs.ackedWrites)),
		"wal.bytes_per_obs":            ratio(delta(notary.KeyWALBytes), float64(rs.ackedObs)),
		"read.has_record_ms":           quantile(rs.readMs, 0.99),
		"read.stats_ms":                median(rs.statsMs),
		"notaryshard.merges_per_stats": ratio(delta(notaryshard.KeyMergeTotal), float64(len(rs.statsMs))),
		"notary.recover_ms":            recoverMs,
		"gen.late_max_ms":              late,
	}
}

// checkDurable reopens the store of the killed server: every acknowledged
// observation must have survived.
func checkDurable(dir string, pool []tlsnet.Leaf, wantSessions int64, run []*phase) ([]string, error) {
	cl, err := notaryshard.Open(faultfs.Disk, dir, certgen.Epoch, ingestShards, notaryshard.WithWorkers(analysisWorkers))
	if err != nil {
		return nil, fmt.Errorf("reopening store after the load: %w", err)
	}
	var problems []string
	if got := cl.Sessions(); got != wantSessions {
		problems = append(problems, fmt.Sprintf("reopened store holds %d sessions, want %d", got, wantSessions))
	}
	missing := 0
	for _, li := range ackedLeaves(run) {
		if !cl.HasRecord(pool[li].Chain[0]) {
			missing++
		}
	}
	if missing > 0 {
		problems = append(problems, fmt.Sprintf("%d acknowledged leaves missing after reopen", missing))
	}
	if err := cl.Close(); err != nil {
		return nil, fmt.Errorf("closing reopened store: %w", err)
	}
	return problems, nil
}

// ackedLeaves lists, once each, the pool leaves of acknowledged batches.
func ackedLeaves(run []*phase) []int {
	seen := map[int]bool{}
	var out []int
	for _, ph := range run {
		for i, rq := range ph.reqs {
			if rq.kind != opWrite || !ph.recs[i].ok() {
				continue
			}
			for _, li := range rq.leaves {
				if !seen[li] {
					seen[li] = true
					out = append(out, li)
				}
			}
		}
	}
	return out
}

// checkReads checks every has_record answer that the load's own history
// decides: a leaf prefed or acknowledged before the read was sent must be
// on record.
func checkReads(run []*phase, prefed []bool) []string {
	known := map[int]bool{}
	for i, p := range prefed {
		if p {
			known[i] = true
		}
	}
	wrong := 0
	for _, ph := range run {
		ackedAt := map[int]time.Duration{}
		for i, rq := range ph.reqs {
			if rq.kind != opWrite || !ph.recs[i].ok() {
				continue
			}
			for _, li := range rq.leaves {
				if t, ok := ackedAt[li]; !ok || ph.recs[i].done < t {
					ackedAt[li] = ph.recs[i].done
				}
			}
		}
		for i, rq := range ph.reqs {
			rec := ph.recs[i]
			if rq.kind != opRead || !rec.ok() {
				continue
			}
			li := rq.leaves[0]
			t, acked := ackedAt[li]
			if (known[li] || acked && t < rec.sent) && !rec.recorded {
				wrong++
			}
		}
		for li := range ackedAt {
			known[li] = true
		}
	}
	if wrong > 0 {
		return []string{fmt.Sprintf("%d has_record answers missed an acknowledged leaf", wrong)}
	}
	return nil
}

// histDelta subtracts an earlier snapshot of the same histogram.
func histDelta(after, before obs.HistogramSnapshot) obs.HistogramSnapshot {
	d := obs.HistogramSnapshot{Count: after.Count - before.Count, Sum: after.Sum - before.Sum, Overflow: after.Overflow - before.Overflow}
	d.Buckets = append(d.Buckets, after.Buckets...)
	for i := range d.Buckets {
		if i < len(before.Buckets) {
			d.Buckets[i].Count -= before.Buckets[i].Count
		}
	}
	return d
}

// applyLog collects batch apply times, in milliseconds.
type applyLog struct {
	mu sync.Mutex
	ms []float64
}

func (l *applyLog) add(v float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ms = append(l.ms, v)
}

// all copies the apply times so far; nil for a nil log.
func (l *applyLog) all() []float64 {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]float64(nil), l.ms...)
}

// timedCluster is what a traced run serves: the cluster with its batch
// apply timed. Every other View, Ingester and BatchIngester method is the
// cluster's own, so the server behaves as it does untraced.
type timedCluster struct {
	*notaryshard.Cluster
	log *applyLog
}

// ObserveBatch times the cluster's apply of one batch.
func (t timedCluster) ObserveBatch(id string, batch []notary.Observation) error {
	start := time.Now()
	err := t.Cluster.ObserveBatch(id, batch)
	t.log.add(ms(time.Since(start)))
	return err
}

var _ notarynet.BatchIngester = timedCluster{}
