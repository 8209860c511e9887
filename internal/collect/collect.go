// Package collect is the measurement back end: the service Netalyzr
// sessions report to (§4.1 describes 15,970 such submissions). Clients
// serialize a session report to a compact wire form and submit it; the
// collector aggregates live tallies — session counts per manufacturer and
// version, extended-store and untrusted-probe counters, store-size
// distribution — and answers summary queries.
//
// The package is a dispatch table over internal/wire, which owns the
// transport (line-framed JSON over TCP, reconnect and retry, bounded
// shutdown) and the idempotency window. What lives here is the protocol:
// the request/response types, the submit/summary dispatch, and the API.
package collect

import (
	"tangledmass/internal/certid"
	"tangledmass/internal/netalyzr"
)

// WireProbe is one probe result in wire form.
type WireProbe struct {
	Host string `json:"host"`
	Port int    `json:"port"`
	// ChainSubjects are the presented chain's subjects, leaf first.
	ChainSubjects []string `json:"chain_subjects,omitempty"`
	// TopHash is the Android subject hash of the topmost presented cert.
	TopHash         string `json:"top_hash,omitempty"`
	DeviceValidated bool   `json:"device_validated"`
	Err             string `json:"err,omitempty"`
	// ErrKind is the stable resilient.Kind label for Err ("refused",
	// "reset", "timeout", …) — what the collector's fault aggregate counts
	// by, since Err itself carries unstable detail like addresses.
	ErrKind string `json:"err_kind,omitempty"`
}

// WireReport is one session in wire form. Store contents travel as subject
// hashes — enough for the §5 analyses while keeping submissions small, and
// matching the paper's privacy posture of not collecting device identifiers.
type WireReport struct {
	Model        string `json:"model"`
	Manufacturer string `json:"manufacturer"`
	Operator     string `json:"operator"`
	Country      string `json:"country"`
	Version      string `json:"version"`
	Rooted       bool   `json:"rooted"`
	// StoreSize is the effective store's certificate count; StoreHashes its
	// members' subject hashes.
	StoreSize   int         `json:"store_size"`
	StoreHashes []string    `json:"store_hashes"`
	Probes      []WireProbe `json:"probes"`
}

// FromReport converts a client-side session report to wire form.
func FromReport(r *netalyzr.Report) WireReport {
	w := WireReport{
		Model:        r.Profile.Model,
		Manufacturer: r.Profile.Manufacturer,
		Operator:     r.Profile.Operator,
		Country:      r.Profile.Country,
		Version:      r.Profile.Version,
		Rooted:       r.Rooted,
		StoreSize:    r.Store.Len(),
	}
	for _, c := range r.Store.Certificates() {
		w.StoreHashes = append(w.StoreHashes, certid.SubjectHashString(c))
	}
	for _, p := range r.Probes {
		wp := WireProbe{
			Host:            p.Target.Host,
			Port:            p.Target.Port,
			DeviceValidated: p.DeviceValidated,
		}
		if p.Err != nil {
			wp.Err = p.Err.Error()
			wp.ErrKind = p.ErrKind
		}
		for _, c := range p.Chain {
			wp.ChainSubjects = append(wp.ChainSubjects, certid.SubjectString(c))
		}
		if len(p.Chain) > 0 {
			wp.TopHash = certid.SubjectHashString(p.Chain[len(p.Chain)-1])
		}
		w.Probes = append(w.Probes, wp)
	}
	return w
}

// Summary is the collector's live aggregate.
type Summary struct {
	Sessions        int64            `json:"sessions"`
	RootedSessions  int64            `json:"rooted_sessions"`
	UntrustedProbes int64            `json:"untrusted_probes"`
	ByManufacturer  map[string]int64 `json:"by_manufacturer"`
	ByVersion       map[string]int64 `json:"by_version"`
	// ProbeFaults counts failed probes across all sessions by their typed
	// ErrKind — the collector-side view of how lossy the measured networks
	// were. Probes with an error but no kind count under "error".
	ProbeFaults map[string]int64 `json:"probe_faults,omitempty"`
	// StoreSizeMin/Max/Sum summarize the store-size distribution.
	StoreSizeMin int   `json:"store_size_min"`
	StoreSizeMax int   `json:"store_size_max"`
	StoreSizeSum int64 `json:"store_size_sum"`
}

// MeanStoreSize is the average effective-store size across sessions.
func (s Summary) MeanStoreSize() float64 {
	if s.Sessions == 0 {
		return 0
	}
	return float64(s.StoreSizeSum) / float64(s.Sessions)
}

// newSummary returns a zeroed aggregate with allocated maps.
func newSummary() Summary {
	return Summary{
		ByManufacturer: make(map[string]int64),
		ByVersion:      make(map[string]int64),
		ProbeFaults:    make(map[string]int64),
		StoreSizeMin:   -1,
	}
}

// absorb folds one report into the aggregate.
func (s *Summary) absorb(w WireReport) {
	s.Sessions++
	if w.Rooted {
		s.RootedSessions++
	}
	s.ByManufacturer[w.Manufacturer]++
	s.ByVersion[w.Version]++
	for _, p := range w.Probes {
		if p.Err == "" && !p.DeviceValidated {
			s.UntrustedProbes++
		}
		if p.Err != "" {
			kind := p.ErrKind
			if kind == "" {
				kind = "error"
			}
			s.ProbeFaults[kind]++
		}
	}
	if s.StoreSizeMin < 0 || w.StoreSize < s.StoreSizeMin {
		s.StoreSizeMin = w.StoreSize
	}
	if w.StoreSize > s.StoreSizeMax {
		s.StoreSizeMax = w.StoreSize
	}
	s.StoreSizeSum += int64(w.StoreSize)
}

// clone deep-copies the aggregate for safe hand-out.
func (s Summary) clone() Summary {
	out := s
	out.ByManufacturer = make(map[string]int64, len(s.ByManufacturer))
	for k, v := range s.ByManufacturer {
		out.ByManufacturer[k] = v
	}
	out.ByVersion = make(map[string]int64, len(s.ByVersion))
	for k, v := range s.ByVersion {
		out.ByVersion[k] = v
	}
	out.ProbeFaults = make(map[string]int64, len(s.ProbeFaults))
	for k, v := range s.ProbeFaults {
		out.ProbeFaults[k] = v
	}
	return out
}
