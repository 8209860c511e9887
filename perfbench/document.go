package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"
	"time"

	"tangledmass/internal/analysis"
	"tangledmass/internal/cauniverse"
	"tangledmass/internal/certgen"
	"tangledmass/internal/notary"
	"tangledmass/internal/obs"
	"tangledmass/internal/population"
	"tangledmass/internal/tlsnet"
)

// The paper document's size: a quarter of the paper's session quota and a
// 4,000-certificate TLS internet keep one cold document near 3 s on two
// cores, so a 10 s run measures three of them.
const (
	docScale  = 0.25
	docLeaves = 4000
)

// analysisWorkers is the analysis engine's and the notary's parallelism.
const analysisWorkers = 2

// wantTable1 are the paper's Table 1 store sizes, in report order.
var wantTable1 = []int{139, 140, 146, 150, 227, 153}

// wantByteIdentical is §2's count of AOSP 4.4 roots byte-identical to a
// Mozilla root.
const wantByteIdentical = 117

// documentChild builds the whole paper document once, cold: seed →
// universe → fleet → TLS internet → notary → every table, figure,
// headline and the trust attribution → verified JSON.
func documentChild(_ context.Context, c *childCtx) (*childResult, error) {
	tr := newTracer(c.trace == 1)
	start, cpu0 := time.Now(), cpuSeconds()
	root := tr.begin("document")

	var (
		u           *cauniverse.Universe
		universeCPU float64
		err         error
	)
	tr.run("cauniverse.new", func() {
		t := cpuSeconds()
		u, err = cauniverse.New(c.seed)
		universeCPU = cpuSeconds() - t
	})
	if err != nil {
		return nil, fmt.Errorf("building universe: %w", err)
	}
	eng := analysis.NewEngine(analysis.WithWorkers(analysisWorkers))
	art := map[string]any{}
	var (
		table1  []analysis.StoreSize
		overlap analysis.OverlapReport
	)
	tr.run("analysis.universe", func() {
		table1 = analysis.Table1(u)
		overlap = analysis.MozillaOverlap(u)
	})
	art["table1"], art["mozilla_overlap"] = table1, overlap

	var pop *population.Population
	tr.run("population.generate", func() {
		pop, err = population.Generate(population.Config{Seed: c.seed, Universe: u, SessionScale: docScale})
	})
	if err != nil {
		return nil, fmt.Errorf("generating population: %w", err)
	}
	var attribution analysis.TrustAttribution
	tr.run("analysis.population", func() {
		attribution = populationArtifacts(eng, pop, art)
	})

	var world *tlsnet.World
	tr.run("tlsnet.world", func() {
		world, err = tlsnet.NewWorld(tlsnet.Config{Seed: c.seed, Universe: u, NumLeaves: docLeaves})
	})
	if err != nil {
		return nil, fmt.Errorf("building TLS internet: %w", err)
	}
	nobs := obs.New()
	n := notary.New(certgen.Epoch, notary.WithObserver(nobs), notary.WithWorkers(analysisWorkers))
	tr.run("notary.feed", func() { tlsnet.Feed(world, n) })
	tr.run("analysis.figure2", func() {
		cells := eng.Figure2(pop, n, 10)
		art["figure2"], art["figure2_class_shares"] = cells, analysis.ClassShares(cells)
	})
	tr.run("analysis.table3", func() { art["table3"] = eng.Table3(n, u) })
	tr.run("analysis.categories", func() {
		cats := eng.ValidateCategories(n, analysis.Figure3Categories(u))
		art["table4"], art["figure3"] = cats, cats
	})

	var data []byte
	tr.run("document.encode", func() { data, err = json.Marshal(art) })
	if err != nil {
		return nil, fmt.Errorf("encoding document: %w", err)
	}
	var problems []string
	tr.run("document.verify", func() {
		problems = verifyDocument(table1, overlap, attribution, pop.TotalSessions())
	})
	sum := sha256.Sum256(data)
	tr.end(root)
	docS, docCPU := time.Since(start).Seconds(), cpuSeconds()-cpu0

	r := &childResult{
		SetupS:    universeCPU,
		SamplesMs: []float64{docS * 1000},
		Units:     1,
		WorkS:     docS,
		CPUS:      docCPU,
		Attempted: 1,
		Problems:  problems,
		Digest:    hex.EncodeToString(sum[:]),
		Named:     map[string]float64{"document_s": docS},
	}
	if tr.on {
		spans := tr.totals()
		cache := n.CacheStats()
		lookups := cache.Hits + cache.Misses
		r.Layers = map[string]float64{
			"cauniverse.new_s":      spans["cauniverse.new"],
			"population.generate_s": spans["population.generate"],
			"tlsnet.world_s":        spans["tlsnet.world"],
			"certgen.leaf_sign_us":  spans["tlsnet.world"] / docLeaves * 1e6,
			"notary.feed_s":         spans["notary.feed"],
			"notary.ingest_chains":  float64(nobs.Snapshot().Counters[notary.KeyIngestChains]),
			"analysis.table3_s":     spans["analysis.table3"],
			"analysis.categories_s": spans["analysis.categories"],
			"analysis.figure2_s":    spans["analysis.figure2"],
			"analysis.population_s": spans["analysis.population"],
			"chain.cache_hits":      float64(cache.Hits),
			"chain.cache_misses":    float64(cache.Misses),
			"chain.cache_lookups":   float64(lookups),
			"chain.cache_hit_ratio": ratio(float64(cache.Hits), float64(lookups)),
			"document.encode_s":     spans["document.encode"],
			"document.covered_s":    tr.covered(),
		}
	}
	return r, nil
}

// populationArtifacts runs the fleet-only aggregates into art and returns
// the trust attribution for verification.
func populationArtifacts(eng *analysis.Engine, pop *population.Population, art map[string]any) analysis.TrustAttribution {
	devices, manufacturers := eng.Table2(pop, 5)
	art["table2"] = map[string]any{"devices": devices, "manufacturers": manufacturers}
	art["headlines"] = eng.ComputeHeadlines(pop)
	art["figure1"] = eng.Figure1(pop)
	art["table5"] = eng.Table5(pop)
	art["sessions_per_month"] = eng.SessionsPerMonth(pop)
	ta := eng.ComputeTrustAttribution(pop)
	art["trust_attribution"] = ta
	return ta
}

// verifyDocument checks the document against the paper's fixed numbers
// and its own invariants.
func verifyDocument(table1 []analysis.StoreSize, overlap analysis.OverlapReport, ta analysis.TrustAttribution, sessions int) []string {
	var problems []string
	sizes := make([]int, len(table1))
	for i, row := range table1 {
		sizes[i] = row.Certs
	}
	if !slices.Equal(sizes, wantTable1) {
		problems = append(problems, fmt.Sprintf("table 1 store sizes %v, want %v", sizes, wantTable1))
	}
	if overlap.ByteIdentical != wantByteIdentical {
		problems = append(problems, fmt.Sprintf("AOSP 4.4 ∩ Mozilla byte-identical = %d, want %d", overlap.ByteIdentical, wantByteIdentical))
	}
	problems = append(problems, checkAttribution(ta, sessions)...)
	return problems
}

// checkAttribution checks that the trust-attribution causes partition the
// fleet's sessions.
func checkAttribution(ta analysis.TrustAttribution, sessions int) []string {
	total := 0
	for _, cc := range ta.ByCause {
		total += cc.Sessions
	}
	if total != sessions || ta.TotalSessions != sessions {
		return []string{fmt.Sprintf("trust attribution causes sum to %d (total %d), want %d sessions", total, ta.TotalSessions, sessions)}
	}
	return nil
}

// finishDocument checks that every same-seed child built the same
// document, and reconciles the traced children against the untraced ones:
// spans must cover at least 90% of the untraced document time, and the
// difference between traced and untraced documents is the tracing cost.
func finishDocument(o *outcome) {
	for _, r := range o.children {
		if r.Digest != o.children[0].Digest {
			o.problems = append(o.problems, "document digest differs between same-seed children")
			break
		}
	}
	var traced, untraced, covered []float64
	for _, r := range o.children {
		if r.Traced {
			traced = append(traced, r.WorkS)
			covered = append(covered, r.Layers["document.covered_s"])
		} else {
			untraced = append(untraced, r.WorkS)
		}
	}
	if len(traced) == 0 || len(untraced) == 0 {
		return
	}
	share := 1 - median(covered)/median(untraced)
	o.layers["document.untraced_share"] = []float64{share}
	o.layers["trace.overhead_s"] = []float64{median(traced) - median(untraced)}
	if share > maxUntracedShare {
		o.problems = append(o.problems, fmt.Sprintf("spans cover only %.1f%% of the untraced document time", (1-share)*100))
	}
}

// maxUntracedShare is the share of a traced unit of work its spans may
// leave unexplained.
const maxUntracedShare = 0.10
