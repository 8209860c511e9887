package analysis

import (
	"crypto/x509"
	"sort"

	"tangledmass/internal/cauniverse"
	"tangledmass/internal/certid"
	"tangledmass/internal/corpus"
	"tangledmass/internal/notary"
	"tangledmass/internal/population"
	"tangledmass/internal/rootstore"
	"tangledmass/internal/stats"
)

// Batch is one contiguous slice of the fleet: a run of handsets together
// with exactly the sessions those handsets emitted. Sessions are emitted
// contiguously per handset in handset order, so any handset range [i, j)
// pairs with the session range [offsets[i], offsets[j]) — Batches and the
// Engine's reduce slice the fleet that way.
type Batch struct {
	Handsets []*population.Handset
	Sessions []*population.Session
}

// Aggregate is an incrementally mergeable analysis: feed batches with Add
// (O(batch) work each), combine partial aggregates with Merge, and read the
// final artifact with Result. Merge must be called in batch order — the
// receiver holding earlier batches, the argument later ones — which keeps
// the few order-sensitive analyses (Table 5's first-sighting CN, Figure 2's
// last-sighting certificate instance) byte-identical to a one-shot fold at
// any batch size or worker count. Merge panics if other is not the same
// concrete aggregate type. Aggregates are not safe for concurrent use; the
// Engine gives each shard its own and merges in ascending shard order.
type Aggregate[B, R any] interface {
	Add(batch B)
	Merge(other Aggregate[B, R])
	Result() R
}

// sessionOffsets returns len(p.Handsets)+1 prefix sums of per-handset
// session counts: handset i owns p.Sessions[offs[i]:offs[i+1]].
func sessionOffsets(p *population.Population) []int {
	offs := make([]int, len(p.Handsets)+1)
	for i, h := range p.Handsets {
		offs[i+1] = offs[i] + h.SessionCount
	}
	return offs
}

// Batches slices p into contiguous batches of up to size handsets each,
// with their sessions — the streaming unit incremental consumers feed to
// Aggregate.Add as new data arrives.
func Batches(p *population.Population, size int) []Batch {
	if size <= 0 {
		size = len(p.Handsets)
	}
	offs := sessionOffsets(p)
	var out []Batch
	for start := 0; start < len(p.Handsets); start += size {
		end := start + size
		if end > len(p.Handsets) {
			end = len(p.Handsets)
		}
		out = append(out, Batch{
			Handsets: p.Handsets[start:end],
			Sessions: p.Sessions[offs[start]:offs[end]],
		})
	}
	return out
}

// reduce folds the whole fleet through fresh aggregates on the engine's
// pool: each worker Adds contiguous handset batches in index order, and the
// shard aggregates Merge in ascending shard order — so the result is
// byte-identical to newAgg().Add(everything).Result() at any worker count.
func reduce[R any](e *Engine, p *population.Population, newAgg func() Aggregate[Batch, R]) R {
	offs := sessionOffsets(p)
	agg := accumulate(e, len(p.Handsets),
		newAgg,
		func(a Aggregate[Batch, R], start, end int) Aggregate[Batch, R] {
			a.Add(Batch{
				Handsets: p.Handsets[start:end],
				Sessions: p.Sessions[offs[start]:offs[end]],
			})
			return a
		},
		func(into, from Aggregate[Batch, R]) Aggregate[Batch, R] {
			into.Merge(from)
			return into
		})
	return agg.Result()
}

// Table2Counts is the full (untruncated) Table 2 aggregation: every device
// and manufacturer with its session count, busiest first.
type Table2Counts struct {
	Devices       []CountRow
	Manufacturers []CountRow
}

type table2Agg struct {
	dev, man map[string]int
}

// NewTable2Aggregate counts sessions per device and per manufacturer.
func NewTable2Aggregate() Aggregate[Batch, Table2Counts] {
	return &table2Agg{dev: map[string]int{}, man: map[string]int{}}
}

func (a *table2Agg) Add(b Batch) {
	for _, s := range b.Sessions {
		a.dev[s.Handset.Manufacturer+" "+s.Handset.Model]++
		a.man[s.Handset.Manufacturer]++
	}
}

func (a *table2Agg) Merge(other Aggregate[Batch, Table2Counts]) {
	o := other.(*table2Agg)
	for k, n := range o.dev {
		a.dev[k] += n
	}
	for k, n := range o.man {
		a.man[k] += n
	}
}

func (a *table2Agg) Result() Table2Counts {
	return Table2Counts{Devices: topK(a.dev, len(a.dev)), Manufacturers: topK(a.man, len(a.man))}
}

type fig1Key struct {
	man, ver   string
	aosp, xtra int
}

type figure1Agg struct {
	counts map[fig1Key]int
}

// NewFigure1Aggregate counts sessions per Figure 1 scatter coordinate.
func NewFigure1Aggregate() Aggregate[Batch, []ScatterPoint] {
	return &figure1Agg{counts: map[fig1Key]int{}}
}

func (a *figure1Agg) Add(b Batch) {
	for _, s := range b.Sessions {
		h := s.Handset
		a.counts[fig1Key{h.Manufacturer, h.Version, h.AOSPCount, h.ExtraCount}]++
	}
}

func (a *figure1Agg) Merge(other Aggregate[Batch, []ScatterPoint]) {
	o := other.(*figure1Agg)
	for k, n := range o.counts {
		a.counts[k] += n
	}
}

func (a *figure1Agg) Result() []ScatterPoint {
	out := make([]ScatterPoint, 0, len(a.counts))
	for k, n := range a.counts {
		out = append(out, ScatterPoint{k.man, k.ver, k.aosp, k.xtra, n})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Manufacturer != b.Manufacturer {
			return a.Manufacturer < b.Manufacturer
		}
		if a.Version != b.Version {
			return a.Version < b.Version
		}
		if a.AOSPCerts != b.AOSPCerts {
			return a.AOSPCerts < b.AOSPCerts
		}
		return a.ExtraCerts < b.ExtraCerts
	})
	return out
}

type headlinesAgg struct {
	sessions, handsets                           int
	models                                       map[string]bool
	roots                                        map[certid.Identity]bool
	extended, old, oldOver40, rooted, rootedExcl int
	intercepted, missing                         int
}

// NewHeadlinesAggregate derives the §5/§6 headline numbers incrementally.
func NewHeadlinesAggregate() Aggregate[Batch, Headlines] {
	return &headlinesAgg{models: map[string]bool{}, roots: map[certid.Identity]bool{}}
}

func (a *headlinesAgg) Add(b Batch) {
	for _, h := range b.Handsets {
		a.handsets++
		if h.MissingCount > 0 {
			a.missing++
		}
		h.Store.Each(func(id certid.Identity) { a.roots[id] = true })
	}
	for _, s := range b.Sessions {
		a.sessions++
		hs := s.Handset
		a.models[hs.Manufacturer+"/"+hs.Model] = true
		if hs.ExtraCount > 0 {
			a.extended++
		}
		if hs.Version == "4.1" || hs.Version == "4.2" {
			a.old++
			if hs.ExtraCount > 40 {
				a.oldOver40++
			}
		}
		if hs.Rooted {
			a.rooted++
			if hs.RootedExclusive {
				a.rootedExcl++
			}
		}
		if s.Intercepted {
			a.intercepted++
		}
	}
}

func (a *headlinesAgg) Merge(other Aggregate[Batch, Headlines]) {
	o := other.(*headlinesAgg)
	a.sessions += o.sessions
	a.handsets += o.handsets
	for m := range o.models {
		a.models[m] = true
	}
	for id := range o.roots {
		a.roots[id] = true
	}
	a.extended += o.extended
	a.old += o.old
	a.oldOver40 += o.oldOver40
	a.rooted += o.rooted
	a.rootedExcl += o.rootedExcl
	a.intercepted += o.intercepted
	a.missing += o.missing
}

func (a *headlinesAgg) Result() Headlines {
	h := Headlines{
		TotalSessions:       a.sessions,
		Handsets:            a.handsets,
		Models:              len(a.models),
		UniqueRoots:         len(a.roots),
		MissingHandsets:     a.missing,
		InterceptedSessions: a.intercepted,
	}
	if a.sessions > 0 {
		h.ExtendedFraction = float64(a.extended) / float64(a.sessions)
		h.RootedFraction = float64(a.rooted) / float64(a.sessions)
	}
	if a.old > 0 {
		h.Over40Fraction41_42 = float64(a.oldOver40) / float64(a.old)
	}
	if a.rooted > 0 {
		h.RootedExclusiveOfRoots = float64(a.rootedExcl) / float64(a.rooted)
	}
	return h
}

type monthsAgg struct {
	counts map[string]int
}

// NewMonthsAggregate histograms sessions over the collection window.
func NewMonthsAggregate() Aggregate[Batch, []MonthCount] {
	return &monthsAgg{counts: map[string]int{}}
}

func (a *monthsAgg) Add(b Batch) {
	for _, s := range b.Sessions {
		a.counts[s.At.Format("2006-01")]++
	}
}

func (a *monthsAgg) Merge(other Aggregate[Batch, []MonthCount]) {
	o := other.(*monthsAgg)
	for m, n := range o.counts {
		a.counts[m] += n
	}
}

func (a *monthsAgg) Result() []MonthCount {
	months := make([]string, 0, len(a.counts))
	for m := range a.counts {
		months = append(months, m)
	}
	sort.Strings(months)
	out := make([]MonthCount, len(months))
	for i, m := range months {
		out[i] = MonthCount{Month: m, Sessions: a.counts[m]}
	}
	return out
}

type rootTally struct {
	rooted, nonRooted int
	subject           string
}

type table5Agg struct {
	u      *cauniverse.Universe
	aosp44 *rootstore.Store
	counts map[certid.Identity]*rootTally
	cn     map[certid.Identity]string
}

// NewTable5Aggregate detects certificates appearing exclusively on rooted
// handsets (the §6 methodology), incrementally over handset batches.
func NewTable5Aggregate(u *cauniverse.Universe) Aggregate[Batch, []RootedExclusive] {
	return &table5Agg{
		u:      u,
		aosp44: u.AOSP("4.4"),
		counts: map[certid.Identity]*rootTally{},
		cn:     map[certid.Identity]string{},
	}
}

func (a *table5Agg) Add(b Batch) {
	// The CN recorded for an identity is the one carried by the first
	// handset (in fleet order) that introduced it — order-sensitive, and
	// deterministic because batches Add in fleet order and Merge keeps the
	// earlier aggregate's sighting.
	for _, h := range b.Handsets {
		h.Store.Each(func(id certid.Identity) {
			if a.aosp44.ContainsIdentity(id) {
				return
			}
			t := a.counts[id]
			if t == nil {
				t = &rootTally{subject: id.Subject}
				a.counts[id] = t
				if c := h.Store.Get(id); c != nil {
					a.cn[id] = c.Subject.CommonName
				}
			}
			if h.Rooted {
				t.rooted++
			} else {
				t.nonRooted++
			}
		})
	}
}

func (a *table5Agg) Merge(other Aggregate[Batch, []RootedExclusive]) {
	o := other.(*table5Agg)
	for id, t := range o.counts {
		if have := a.counts[id]; have != nil {
			have.rooted += t.rooted
			have.nonRooted += t.nonRooted
			continue
		}
		a.counts[id] = t
		// The CN travels with the identity's creating batch only: later
		// batches never override an earlier first sighting.
		if name, ok := o.cn[id]; ok {
			a.cn[id] = name
		}
	}
}

func (a *table5Agg) Result() []RootedExclusive {
	nameByID := map[certid.Identity]string{}
	for _, r := range a.u.Roots() {
		nameByID[corpus.IdentityOf(r.Issued.Cert)] = r.Name
	}
	var out []RootedExclusive
	for id, t := range a.counts {
		if t.rooted >= 1 && t.nonRooted == 0 {
			name := nameByID[id]
			if name == "" {
				name = a.cn[id]
			}
			if name == "" {
				name = id.Subject
			}
			out = append(out, RootedExclusive{Subject: id.Subject, Name: name, Devices: t.rooted})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Devices != out[j].Devices {
			return out[i].Devices > out[j].Devices
		}
		return out[i].Name < out[j].Name
	})
	return out
}

type fig2GroupKey struct{ kind, name string }

type figure2Agg struct {
	u           *cauniverse.Universe
	n           *notary.Notary
	minSessions int
	groupTotal  map[fig2GroupKey]int
	certCount   map[fig2GroupKey]map[certid.Identity]int
	certObj     map[certid.Identity]*x509.Certificate
}

// NewFigure2Aggregate builds the Figure 2 attribution matrix incrementally
// over session batches. Groups with fewer than minSessions modified-store
// sessions are omitted at Result time.
func NewFigure2Aggregate(u *cauniverse.Universe, n *notary.Notary, minSessions int) Aggregate[Batch, []AttributionCell] {
	return &figure2Agg{
		u:           u,
		n:           n,
		minSessions: minSessions,
		groupTotal:  map[fig2GroupKey]int{},
		certCount:   map[fig2GroupKey]map[certid.Identity]int{},
		certObj:     map[certid.Identity]*x509.Certificate{},
	}
}

func (a *figure2Agg) Add(b Batch) {
	for _, s := range b.Sessions {
		h := s.Handset
		// Rooted handsets are analyzed separately (§4.1: "We analyzed
		// rooted handsets separately from operator and manufacturer
		// root stores to avoid any bias") — see Table5.
		if h.ExtraCount == 0 || h.Rooted {
			continue
		}
		aosp := a.u.AOSP(h.Version)
		user := h.Device.UserStore()
		groups := []fig2GroupKey{
			{"manufacturer", h.Manufacturer + " " + h.Version},
			{"operator", h.Operator + "(" + h.Country + ")"},
		}
		for _, g := range groups {
			a.groupTotal[g]++
			if a.certCount[g] == nil {
				a.certCount[g] = map[certid.Identity]int{}
			}
			for _, c := range h.Store.Certificates() {
				// Attribute firmware additions only: user-installed
				// roots (the §5.2 per-device VPN certificates) are not
				// vendor or operator behaviour.
				if aosp.Contains(c) || user.Contains(c) {
					continue
				}
				id := corpus.IdentityOf(c)
				a.certCount[g][id]++
				a.certObj[id] = c
			}
		}
	}
}

func (a *figure2Agg) Merge(other Aggregate[Batch, []AttributionCell]) {
	o := other.(*figure2Agg)
	for g, n := range o.groupTotal {
		a.groupTotal[g] += n
	}
	for g, m := range o.certCount {
		if a.certCount[g] == nil {
			a.certCount[g] = m
			continue
		}
		for id, n := range m {
			a.certCount[g][id] += n
		}
	}
	// Serial Adds overwrite certObj on every sighting, so the
	// representative instance is the LAST one in session order: the later
	// aggregate overrides the earlier one.
	for id, c := range o.certObj {
		a.certObj[id] = c
	}
}

func (a *figure2Agg) Result() []AttributionCell {
	nameByID := map[certid.Identity]string{}
	for _, r := range a.u.Roots() {
		nameByID[corpus.IdentityOf(r.Issued.Cert)] = r.Name
	}
	var cells []AttributionCell
	for g, total := range a.groupTotal {
		if total < a.minSessions {
			continue
		}
		for id, count := range a.certCount[g] {
			cert := a.certObj[id]
			name := nameByID[id]
			if name == "" {
				name = cert.Subject.CommonName
			}
			cells = append(cells, AttributionCell{
				Group:     g.name,
				GroupKind: g.kind,
				CertName:  name,
				CertHash:  certid.SubjectHashString(cert),
				Sessions:  count,
				Ratio:     float64(count) / float64(total),
				Class:     presenceClass(cert, a.u, a.n),
			})
		}
	}
	sort.Slice(cells, func(i, j int) bool {
		a, b := cells[i], cells[j]
		if a.GroupKind != b.GroupKind {
			return a.GroupKind < b.GroupKind
		}
		if a.Group != b.Group {
			return a.Group < b.Group
		}
		return a.CertName < b.CertName
	})
	return cells
}

type validationAgg struct {
	cats      []Category
	perRoot   map[certid.Identity]int
	validated []int
}

// NewValidationAggregate runs the Notary validation projection (Tables 3–4,
// Figure 3) incrementally over batches of leaf attributions — the output of
// Notary.AttributeLeaves over slices of Notary.UnexpiredLeafRefs. Leaf
// attribution is commutative, so Merge order cannot change the result.
func NewValidationAggregate(cats []Category) Aggregate[[]notary.LeafAttribution, []CategoryValidation] {
	return &validationAgg{
		cats:      cats,
		perRoot:   map[certid.Identity]int{},
		validated: make([]int, len(cats)),
	}
}

func (a *validationAgg) Add(attrs []notary.LeafAttribution) {
	for _, la := range attrs {
		for _, id := range la.Roots {
			a.perRoot[id]++
		}
		for ci, c := range a.cats {
			for _, id := range la.Roots {
				if c.Store.ContainsIdentity(id) {
					a.validated[ci]++
					break
				}
			}
		}
	}
}

func (a *validationAgg) Merge(other Aggregate[[]notary.LeafAttribution, []CategoryValidation]) {
	o := other.(*validationAgg)
	for id, n := range o.perRoot {
		a.perRoot[id] += n
	}
	for i, v := range o.validated {
		a.validated[i] += v
	}
}

func (a *validationAgg) Result() []CategoryValidation {
	out := make([]CategoryValidation, len(a.cats))
	for i, c := range a.cats {
		rep := &notary.StoreReport{
			Store:     c.Store,
			Validated: a.validated[i],
			PerRoot:   make(map[certid.Identity]int, c.Store.Len()),
		}
		for _, id := range c.Store.Identities() {
			rep.PerRoot[id] = a.perRoot[id]
		}
		out[i] = CategoryValidation{
			Name:         c.Name,
			TotalRoots:   c.Store.Len(),
			ZeroFraction: rep.ZeroValidationFraction(),
			Validated:    rep.Validated,
			ECDF:         stats.NewECDF(rep.PerRootCounts()),
		}
	}
	return out
}
