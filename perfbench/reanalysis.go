package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"tangledmass/internal/analysis"
	"tangledmass/internal/cauniverse"
	"tangledmass/internal/corpus"
	"tangledmass/internal/dataset"
	"tangledmass/internal/obs"
	"tangledmass/internal/population"
)

// reanalysisScale is the paper's full session quota (15,970 sessions).
const reanalysisScale = 1.0

// reanalysisChild writes a paper-scale columnar dataset during set-up and
// then measures reanalysis passes over it. A pass is what a CLI load pays:
// a fresh corpus, NewReader + Read, and the fleet aggregates on a
// two-worker engine.
func reanalysisChild(ctx context.Context, c *childCtx) (*childResult, error) {
	cpu0 := cpuSeconds()
	u, err := cauniverse.New(c.seed)
	if err != nil {
		return nil, fmt.Errorf("building universe: %w", err)
	}
	pop, err := population.Generate(population.Config{Seed: c.seed, Universe: u, SessionScale: reanalysisScale})
	if err != nil {
		return nil, fmt.Errorf("generating population: %w", err)
	}
	dir := filepath.Join(c.dir, "dataset")
	if err := dataset.NewWriter(dir, dataset.WithFormat(dataset.Columnar)).Write(ctx, pop); err != nil {
		return nil, fmt.Errorf("writing dataset: %w", err)
	}
	r := &childResult{SetupS: cpuSeconds() - cpu0}
	if c.role == "setup" {
		return r, nil
	}

	eng := analysis.NewEngine(analysis.WithWorkers(analysisWorkers))
	want, err := json.Marshal(reanalysisArtifacts(eng, pop))
	if err != nil {
		return nil, fmt.Errorf("encoding reference artifacts: %w", err)
	}
	// Passes run without the generated fleet in memory, as a CLI load does.
	pop = nil
	runtime.GC()

	var (
		traced                  []map[string]float64
		tracedCovered, untraced []float64
	)
	deadline := time.Now().Add(time.Duration(c.seconds * float64(time.Second)))
	for i := 0; time.Now().Before(deadline); i++ {
		// A traced run alternates traced and untraced passes, so the span
		// coverage can be judged against untraced pass time.
		tr := newTracer(c.trace == 1 && i%2 == 0)
		passCPU := cpuSeconds()
		p, passMs, layers, err := reanalysisPass(ctx, dir, u, eng, tr)
		passCPU = cpuSeconds() - passCPU
		if err != nil {
			return nil, err
		}
		r.Attempted++
		got, err := json.Marshal(p)
		if err != nil {
			return nil, fmt.Errorf("encoding pass artifacts: %w", err)
		}
		if !bytes.Equal(got, want) {
			r.Problems = append(r.Problems, fmt.Sprintf("pass %d: artifacts differ from the in-memory population's", i))
		}
		if tr.on {
			if layers["dataset.verify_ms"], err = timeVerify(ctx, dir); err != nil {
				return nil, err
			}
			traced = append(traced, layers)
			tracedCovered = append(tracedCovered, tr.covered()*1000)
			continue
		}
		r.SamplesMs = append(r.SamplesMs, passMs)
		untraced = append(untraced, passMs)
		r.Units++
		r.WorkS += passMs / 1000
		r.CPUS += passCPU
	}
	if len(r.SamplesMs) > 0 {
		_, v := tail(r.SamplesMs)
		r.Named = map[string]float64{
			"reanalysis_pass_p50_ms":  median(r.SamplesMs),
			"reanalysis_pass_tail_ms": v,
		}
	}
	if c.trace == 1 {
		r.Layers = medianLayers(traced)
		if len(untraced) > 0 && len(tracedCovered) > 0 {
			share := 1 - median(tracedCovered)/median(untraced)
			r.Layers["reanalysis.untraced_share"] = share
			if share > maxUntracedShare {
				r.Problems = append(r.Problems, fmt.Sprintf("spans cover only %.1f%% of the untraced pass time", (1-share)*100))
			}
		}
	}
	return r, nil
}

// reanalysisArtifacts are the fleet aggregates a reanalysis produces.
func reanalysisArtifacts(eng *analysis.Engine, pop *population.Population) map[string]any {
	art := map[string]any{}
	populationArtifacts(eng, pop, art)
	return art
}

// reanalysisPass runs one pass and returns its artifacts, its wall time in
// milliseconds and, when traced, its per-layer numbers.
func reanalysisPass(ctx context.Context, dir string, u *cauniverse.Universe, eng *analysis.Engine, tr *tracer) (map[string]any, float64, map[string]float64, error) {
	var before, afterRead, after runtime.MemStats
	dobs := obs.New()
	cp := corpus.New()
	start := time.Now()
	root := tr.begin("pass")
	if tr.on {
		runtime.ReadMemStats(&before)
	}
	id := tr.begin("dataset.read")
	p, err := dataset.NewReader(dir, dataset.WithCorpus(cp), dataset.WithUniverse(u), dataset.WithObserver(dobs)).Read(ctx)
	tr.end(id)
	if err != nil {
		return nil, 0, nil, fmt.Errorf("reading dataset: %w", err)
	}
	if tr.on {
		runtime.ReadMemStats(&afterRead)
	}
	var art map[string]any
	tr.run("analysis.aggregates", func() { art = reanalysisArtifacts(eng, p) })
	tr.end(root)
	passMs := ms(time.Since(start))
	if tr.on {
		runtime.ReadMemStats(&after)
		spans := tr.totals()
		snap := dobs.Snapshot()
		st := cp.Stats()
		layers := map[string]float64{
			"dataset.read_ms":        spans["dataset.read"] * 1000,
			"analysis.aggregates_ms": spans["analysis.aggregates"] * 1000,
			"dataset.read_alloc_mb":  float64(afterRead.TotalAlloc-before.TotalAlloc) / (1 << 20),
			"dataset.read_allocs":    float64(afterRead.Mallocs - before.Mallocs),
			"go.gc_cycles_per_pass":  float64(after.NumGC - before.NumGC),
			"dataset.read_bytes":     float64(snap.Counters[dataset.KeyReadBytes]),
			"dataset.certs_interned": float64(snap.Counters[dataset.KeyCertsInterned]),
			"corpus.interned":        float64(st.Interned),
			"corpus.hits":            float64(st.Hits),
		}
		return art, passMs, layers, nil
	}
	return art, passMs, nil, nil
}

// timeVerify times the section decode and CRC check alone.
func timeVerify(ctx context.Context, dir string) (float64, error) {
	start := time.Now()
	if _, err := dataset.NewReader(dir).Verify(ctx); err != nil {
		return 0, fmt.Errorf("verifying dataset: %w", err)
	}
	return ms(time.Since(start)), nil
}
