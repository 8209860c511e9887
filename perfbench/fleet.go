package main

import (
	"context"
	"fmt"

	"tangledmass/internal/campaign"
	"tangledmass/internal/cauniverse"
	"tangledmass/internal/certgen"
	"tangledmass/internal/chain"
	"tangledmass/internal/collect"
	"tangledmass/internal/mitm"
	"tangledmass/internal/netalyzr"
	"tangledmass/internal/notary"
	"tangledmass/internal/notarynet"
	"tangledmass/internal/obs"
	"tangledmass/internal/population"
	"tangledmass/internal/resilient"
	"tangledmass/internal/tlsnet"
	"tangledmass/internal/trusteval"
)

// fleetScale is a tenth of the paper's session quota: about 1,600
// sessions and 4,800 loopback TLS probes.
const fleetScale = 0.1

// campaignWorkers is the campaign's session concurrency.
const campaignWorkers = 2

// fleetTargets are the probe targets of every session, as the campaign
// command probes them.
var fleetTargets = []tlsnet.HostPort{
	{Host: "gmail.com", Port: 443},
	{Host: "www.google.com", Port: 443},
	{Host: "www.twitter.com", Port: 443},
}

// fleetChild runs one measurement campaign over the fleet: real loopback
// TLS probes against the origin sites, the interception proxy in front of
// intercepted handsets, reports submitted to a collector and chains
// streamed to an in-memory notary server.
func fleetChild(ctx context.Context, c *childCtx) (*childResult, error) {
	cpu0 := cpuSeconds()
	u, err := cauniverse.New(c.seed)
	if err != nil {
		return nil, fmt.Errorf("building universe: %w", err)
	}
	pop, err := population.Generate(population.Config{Seed: c.seed, Universe: u, SessionScale: fleetScale})
	if err != nil {
		return nil, fmt.Errorf("generating population: %w", err)
	}
	world, err := tlsnet.NewWorld(tlsnet.Config{Seed: c.seed, Universe: u, NumLeaves: 10})
	if err != nil {
		return nil, fmt.Errorf("building TLS internet: %w", err)
	}
	sites, err := tlsnet.NewSites(world)
	if err != nil {
		return nil, fmt.Errorf("building sites: %w", err)
	}
	origin, err := tlsnet.ServeSites(sites)
	if err != nil {
		return nil, fmt.Errorf("serving sites: %w", err)
	}
	defer origin.Close()
	proxy, err := mitm.NewProxy(u.InterceptionRoot().Issued, u.Generator(),
		tlsnet.DirectDialer{Server: origin}, mitm.WithWhitelist(tlsnet.WhitelistedDomains))
	if err != nil {
		return nil, fmt.Errorf("starting interception proxy: %w", err)
	}
	collector, err := collect.NewServer("127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("starting collector: %w", err)
	}
	defer collector.Close()
	nsrv, err := notarynet.NewServer(notary.New(certgen.Epoch), "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("starting notary server: %w", err)
	}
	defer nsrv.Close()
	setupCPU := cpuSeconds() - cpu0

	cobs := obs.New()
	cpu0 = cpuSeconds()
	stats, err := campaign.Run(ctx, pop, origin, collector.Addr(),
		campaign.WithProxy(proxy),
		campaign.WithTargets(fleetTargets),
		campaign.WithConcurrency(campaignWorkers),
		campaign.WithValidationTime(certgen.Epoch),
		campaign.WithNotary(nsrv.Addr()),
		campaign.WithObserver(cobs))
	runCPU := cpuSeconds() - cpu0
	if err != nil {
		return nil, fmt.Errorf("running campaign: %w", err)
	}
	runS := stats.Elapsed.Seconds()

	r := &childResult{
		SetupS:    setupCPU,
		Units:     float64(stats.Sessions),
		WorkS:     runS,
		CPUS:      runCPU,
		Attempted: stats.Sessions,
		Failed:    stats.Failed + stats.SubmitFailed,
		Named: map[string]float64{
			"campaign_sessions_per_s":  float64(stats.Sessions) / runS,
			"campaign_session_mean_ms": spanMeanMs(stats.Obs, campaign.KeySessionSpan),
		},
	}
	if stats.Sessions != len(pop.Sessions) {
		r.Problems = append(r.Problems, fmt.Sprintf("campaign ran %d sessions, fleet has %d", stats.Sessions, len(pop.Sessions)))
	}
	if stats.Failed > 0 || stats.SubmitFailed > 0 || stats.ObserveFailed > 0 {
		r.Problems = append(r.Problems, fmt.Sprintf("%d sessions failed, %d submits and %d observations lost",
			stats.Failed, stats.SubmitFailed, stats.ObserveFailed))
	}
	if got := collector.Summary().Sessions; got != int64(stats.Sessions) {
		r.Problems = append(r.Problems, fmt.Sprintf("collector summarized %d sessions, campaign ran %d", got, stats.Sessions))
	}
	if c.trace == 1 {
		r.Layers = fleetLayers(stats.Obs, stats.Sessions)
	}
	return r, nil
}

// fleetLayers reads the campaign observer's spans and counters.
func fleetLayers(s obs.Snapshot, sessions int) map[string]float64 {
	hits, misses := float64(s.Counters[chain.KeyCacheHits]), float64(s.Counters[chain.KeyCacheMisses])
	dials := s.Counters[netalyzr.KeyDialsTotal] + s.Counters[collect.KeyClientDials] + s.Counters[notarynet.KeyClientDials]
	return map[string]float64{
		"netalyzr.probe_mean_ms":   spanMeanMs(s, netalyzr.KeyProbeSpan),
		"campaign.session_mean_ms": spanMeanMs(s, campaign.KeySessionSpan),
		"trusteval.evals":          float64(s.Counters[trusteval.KeyEvals]),
		"dials_per_session":        ratio(float64(dials), float64(sessions)),
		"resilient.retries":        float64(s.Counters[resilient.KeyRetries]),
		"chain.cache_hits":         hits,
		"chain.cache_misses":       misses,
		"chain.cache_lookups":      hits + misses,
		"chain.cache_hit_ratio":    ratio(hits, hits+misses),
	}
}

// spanMeanMs is the mean duration of the observer's spans of one stage.
func spanMeanMs(s obs.Snapshot, stage string) float64 {
	d := s.Spans[stage].Durations
	return ratio(d.Sum, float64(d.Count))
}
