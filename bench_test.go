package tangledmass

// One benchmark per table and figure of the paper, plus the ablations
// called out in DESIGN.md. Each benchmark regenerates its artifact from the
// shared fixtures; reported time is the cost of the analysis, with substrate
// construction amortized in the fixture.
//
//	go test -bench=. -benchmem
//
// Scale knobs: the fixtures use a 0.25-scale fleet (≈4,000 sessions) and a
// 4,000-leaf Notary so a full bench sweep stays in seconds; cmd/paperfigs
// runs the same analyses at paper scale.

import (
	"context"
	"crypto/x509"
	"sync"
	"testing"

	"tangledmass/internal/analysis"
	"tangledmass/internal/cauniverse"
	"tangledmass/internal/certgen"
	"tangledmass/internal/certid"
	"tangledmass/internal/chain"
	"tangledmass/internal/corpus"
	"tangledmass/internal/device"
	"tangledmass/internal/mitm"
	"tangledmass/internal/netalyzr"
	"tangledmass/internal/notary"
	"tangledmass/internal/population"
	"tangledmass/internal/rootstore"
	"tangledmass/internal/stats"
	"tangledmass/internal/tlsnet"
)

type fixtures struct {
	universe *cauniverse.Universe
	pop      *population.Population
	world    *tlsnet.World
	notary   *notary.Notary
}

var (
	fixOnce sync.Once
	fix     *fixtures
	fixErr  error
)

func benchFixtures(b *testing.B) *fixtures {
	b.Helper()
	fixOnce.Do(func() {
		u := cauniverse.Default()
		pop, err := population.Generate(population.Config{Seed: 1, Universe: u, SessionScale: 0.25})
		if err != nil {
			fixErr = err
			return
		}
		world, err := tlsnet.NewWorld(tlsnet.Config{Seed: 1, Universe: u, NumLeaves: 4000})
		if err != nil {
			fixErr = err
			return
		}
		n := notary.New(certgen.Epoch)
		tlsnet.Feed(world, n)
		fix = &fixtures{universe: u, pop: pop, world: world, notary: n}
	})
	if fixErr != nil {
		b.Fatal(fixErr)
	}
	return fix
}

// BenchmarkTable1StoreSizes builds the full CA universe and reads the store
// sizes of Table 1.
func BenchmarkTable1StoreSizes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		u, err := cauniverse.New(int64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		rows := analysis.Table1(u)
		if len(rows) != 6 {
			b.Fatal("wrong row count")
		}
	}
}

// BenchmarkTable2TopDevices ranks devices and manufacturers by sessions.
func BenchmarkTable2TopDevices(b *testing.B) {
	f := benchFixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		devices, manufacturers := analysis.Table2(f.pop, 5)
		if len(devices) != 5 || len(manufacturers) != 5 {
			b.Fatal("wrong top-k")
		}
	}
}

// BenchmarkTable3ValidationCounts runs the per-store validation totals over
// the Notary (Mozilla, iOS7, AOSP 4.1–4.4 in one crypto pass).
func BenchmarkTable3ValidationCounts(b *testing.B) {
	f := benchFixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := analysis.Table3(f.notary, f.universe)
		if rows[0].Validated == 0 {
			b.Fatal("no validations")
		}
	}
}

// BenchmarkTable4CategoryValidation computes per-category zero-validation
// shares over the paper's eight categories.
func BenchmarkTable4CategoryValidation(b *testing.B) {
	f := benchFixtures(b)
	cats := analysis.Figure3Categories(f.universe)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := analysis.ValidateCategories(f.notary, cats)
		if len(rows) != 8 {
			b.Fatal("wrong category count")
		}
	}
}

// BenchmarkTable5RootedExclusives detects roots present only on rooted
// handsets across the fleet.
func BenchmarkTable5RootedExclusives(b *testing.B) {
	f := benchFixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := analysis.Table5(f.pop)
		if len(rows) == 0 {
			b.Fatal("no exclusives found")
		}
	}
}

// BenchmarkTable6Interception runs a full §7 reproduction per iteration:
// origin TLS server, interception proxy, one Netalyzr session through it,
// and the detector split.
func BenchmarkTable6Interception(b *testing.B) {
	f := benchFixtures(b)
	sites, err := tlsnet.NewSites(f.world)
	if err != nil {
		b.Fatal(err)
	}
	srv, err := tlsnet.ServeSites(sites)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	reference := rootstore.Union("reference", f.universe.AOSP("4.4"), f.universe.Mozilla(), f.universe.IOS7())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		proxy, err := mitm.NewProxy(f.universe.InterceptionRoot().Issued, f.universe.Generator(),
			tlsnet.DirectDialer{Server: srv}, mitm.WithWhitelist(tlsnet.WhitelistedDomains))
		if err != nil {
			b.Fatal(err)
		}
		dev := device.New(device.Profile{Model: "Nexus 7", Manufacturer: "ASUS", Version: "4.4"},
			f.universe.AOSP("4.4"), nil)
		client, err := netalyzr.New(dev, proxy, netalyzr.WithValidationTime(certgen.Epoch))
		if err != nil {
			b.Fatal(err)
		}
		rep, err := client.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		det := &mitm.Detector{Reference: reference, At: certgen.Epoch}
		intercepted, clean := det.InspectReport(rep)
		if len(intercepted) != len(tlsnet.InterceptedDomains) || len(clean) != len(tlsnet.WhitelistedDomains) {
			b.Fatalf("table 6 split wrong: %d/%d", len(intercepted), len(clean))
		}
	}
}

// BenchmarkFigure1Scatter aggregates the fleet into the Figure 1 scatter.
func BenchmarkFigure1Scatter(b *testing.B) {
	f := benchFixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts := analysis.Figure1(f.pop)
		if len(pts) == 0 {
			b.Fatal("no points")
		}
	}
}

// BenchmarkFigure2Attribution builds the vendor/operator certificate
// attribution matrix with Notary presence classes.
func BenchmarkFigure2Attribution(b *testing.B) {
	f := benchFixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cells := analysis.Figure2(f.pop, f.notary, 10)
		if len(cells) == 0 {
			b.Fatal("no cells")
		}
	}
}

// BenchmarkFigure3ECDF computes the per-root validation-count ECDFs for all
// eight categories.
func BenchmarkFigure3ECDF(b *testing.B) {
	f := benchFixtures(b)
	cats := analysis.Figure3Categories(f.universe)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := analysis.ValidateCategories(f.notary, cats)
		for _, r := range rows {
			if r.ECDF.Len() != r.TotalRoots {
				b.Fatal("ECDF sample size mismatch")
			}
		}
	}
}

// BenchmarkSection5Headlines computes the §5 prose numbers.
func BenchmarkSection5Headlines(b *testing.B) {
	f := benchFixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := analysis.ComputeHeadlines(f.pop)
		if h.TotalSessions == 0 {
			b.Fatal("empty headlines")
		}
	}
}

// BenchmarkSection6Rooted computes the rooted-handset shares.
func BenchmarkSection6Rooted(b *testing.B) {
	f := benchFixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if f.pop.RootedSessionFraction() <= 0 {
			b.Fatal("no rooted sessions")
		}
	}
}

// BenchmarkSection7MITMThroughput measures intercepted TLS sessions per
// second through the proxy (leaf cache warm).
func BenchmarkSection7MITMThroughput(b *testing.B) {
	f := benchFixtures(b)
	sites, err := tlsnet.NewSites(f.world)
	if err != nil {
		b.Fatal(err)
	}
	srv, err := tlsnet.ServeSites(sites)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	proxy, err := mitm.NewProxy(f.universe.InterceptionRoot().Issued, f.universe.Generator(),
		tlsnet.DirectDialer{Server: srv}, mitm.WithWhitelist(tlsnet.WhitelistedDomains))
	if err != nil {
		b.Fatal(err)
	}
	dev := device.New(device.Profile{Model: "Nexus 7", Manufacturer: "ASUS", Version: "4.4"},
		f.universe.AOSP("4.4"), nil)
	client, err := netalyzr.New(dev, proxy,
		netalyzr.WithValidationTime(certgen.Epoch),
		netalyzr.WithTargets([]tlsnet.HostPort{{Host: "gmail.com", Port: 443}}))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := client.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if rep.Probes[0].Err != nil {
			b.Fatal(rep.Probes[0].Err)
		}
	}
}

// --- Ablations -----------------------------------------------------------

// BenchmarkAblationIdentityEquivalence measures store intersection under the
// paper's subject+key equivalence...
func BenchmarkAblationIdentityEquivalence(b *testing.B) {
	f := benchFixtures(b)
	a, m := f.universe.AOSP("4.4"), f.universe.Mozilla()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rootstore.Intersect("i", a, m).Len() != 130 {
			b.Fatal("wrong overlap")
		}
	}
}

// ...while BenchmarkAblationIdentityByte measures byte-level matching, which
// is cheaper but undercounts shared roots (117 vs 130).
func BenchmarkAblationIdentityByte(b *testing.B) {
	f := benchFixtures(b)
	a, m := f.universe.AOSP("4.4"), f.universe.Mozilla()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rootstore.ByteIntersectCount(a, m) != 117 {
			b.Fatal("wrong overlap")
		}
	}
}

// ablationChainSetup builds a pool and probe leaves for the chain ablation.
func ablationChainSetup(b *testing.B) (roots, inters, leaves []*x509.Certificate) {
	b.Helper()
	f := benchFixtures(b)
	u := f.universe
	roots = u.AOSP("4.4").Certificates()
	count := 0
	for _, l := range f.world.Leaves() {
		if l.Expired {
			continue
		}
		leaves = append(leaves, l.Chain[0])
		if len(l.Chain) == 3 {
			inters = append(inters, l.Chain[1])
		}
		count++
		if count == 64 {
			break
		}
	}
	return roots, inters, leaves
}

// BenchmarkAblationChainIndexed validates 64 leaves with the subject-indexed
// path builder. Each iteration interns into a fresh corpus, so its
// signature memo starts cold and the ablation compares cold work against
// the unmemoized NaiveVerifier...
func BenchmarkAblationChainIndexed(b *testing.B) {
	roots, inters, leaves := ablationChainSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := chain.NewVerifierIn(corpus.New(), roots, inters, certgen.Epoch)
		for _, l := range leaves {
			v.Validates(l)
		}
	}
}

// ...while BenchmarkAblationChainNaive uses the linear-scan baseline.
func BenchmarkAblationChainNaive(b *testing.B) {
	roots, inters, leaves := ablationChainSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := chain.NewNaiveVerifier(roots, inters, certgen.Epoch)
		for _, l := range leaves {
			v.Validates(l)
		}
	}
}

// BenchmarkAblationNotaryIngest measures observation throughput of the
// Notary's dedup pipeline.
func BenchmarkAblationNotaryIngest(b *testing.B) {
	f := benchFixtures(b)
	leaves := f.world.Leaves()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := notary.New(certgen.Epoch)
		for _, l := range leaves {
			n.Observe(notary.Observation{Chain: l.Chain, Port: l.Port})
		}
		if n.NumUnique() == 0 {
			b.Fatal("empty notary")
		}
	}
}

// BenchmarkAblationMITMCacheHit forges leaves with the cache enabled...
func BenchmarkAblationMITMCacheHit(b *testing.B) {
	benchMITMForge(b, false)
}

// ...and BenchmarkAblationMITMCacheMiss with per-connection re-forging.
func BenchmarkAblationMITMCacheMiss(b *testing.B) {
	benchMITMForge(b, true)
}

func benchMITMForge(b *testing.B, disableCache bool) {
	f := benchFixtures(b)
	sites, err := tlsnet.NewSites(f.world)
	if err != nil {
		b.Fatal(err)
	}
	srv, err := tlsnet.ServeSites(sites)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	mitmOpts := []mitm.Option{}
	if disableCache {
		mitmOpts = append(mitmOpts, mitm.WithoutLeafCache())
	}
	proxy, err := mitm.NewProxy(f.universe.InterceptionRoot().Issued, f.universe.Generator(),
		tlsnet.DirectDialer{Server: srv}, mitmOpts...)
	if err != nil {
		b.Fatal(err)
	}
	dev := device.New(device.Profile{Model: "Nexus 7", Manufacturer: "ASUS", Version: "4.4"},
		f.universe.AOSP("4.4"), nil)
	client, err := netalyzr.New(dev, proxy,
		netalyzr.WithValidationTime(certgen.Epoch),
		netalyzr.WithTargets([]tlsnet.HostPort{{Host: "www.chase.com", Port: 443}}))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := client.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if rep.Probes[0].Err != nil {
			b.Fatal(rep.Probes[0].Err)
		}
	}
}

// BenchmarkPopulationGenerate measures fleet synthesis at 10% scale.
func BenchmarkPopulationGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p, err := population.Generate(population.Config{Seed: int64(i + 1), SessionScale: 0.1})
		if err != nil {
			b.Fatal(err)
		}
		if p.TotalSessions() == 0 {
			b.Fatal("empty population")
		}
	}
}

// BenchmarkSubjectHash measures the Android cacerts file-name hash.
func BenchmarkSubjectHash(b *testing.B) {
	f := benchFixtures(b)
	certs := f.universe.AOSP("4.4").Certificates()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		certid.SubjectHash32(certs[i%len(certs)])
	}
}

// BenchmarkZipfSample measures the popularity sampler feeding the Notary.
func BenchmarkZipfSample(b *testing.B) {
	z, err := stats.NewZipf(200, 1.1, 1.5)
	if err != nil {
		b.Fatal(err)
	}
	src := stats.NewSource(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.Sample(src)
	}
}
