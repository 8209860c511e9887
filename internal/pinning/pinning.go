// Package pinning implements certificate pinning as deployed by the apps
// the paper discusses (§2, §7): Twitter, Facebook and most Google services
// pin their expected keys and reject chains signed by unexpected
// authorities, even ones anchored in the device's root store. Pinning is
// why the marketing proxy of §7 had to whitelist those services — an
// intercepted pinned connection fails loudly inside the app.
//
// Pins follow the HPKP/Chromium convention: a pin is the SHA-256 of the
// certificate's SubjectPublicKeyInfo, and a host's pin set may match any
// certificate in the presented chain (leaf, intermediate, or root), so CA
// rotation below a pinned intermediate does not break the app.
package pinning

import (
	"crypto/sha256"
	"crypto/x509"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"
)

// Pin is the hex-encoded SHA-256 of a certificate's SubjectPublicKeyInfo.
type Pin string

// PinCertificate computes the pin of a certificate's public key.
func PinCertificate(cert *x509.Certificate) Pin {
	sum := sha256.Sum256(cert.RawSubjectPublicKeyInfo)
	return Pin(hex.EncodeToString(sum[:]))
}

// Store maps hosts to their pin sets. The zero value is not usable;
// construct with NewStore. Safe for concurrent use.
type Store struct {
	mu   sync.RWMutex
	pins map[string]map[Pin]bool
}

// NewStore returns an empty pin store.
func NewStore() *Store {
	return &Store{pins: make(map[string]map[Pin]bool)}
}

// Add pins one or more certificates for host. Re-adding is idempotent.
func (s *Store) Add(host string, certs ...*x509.Certificate) {
	s.mu.Lock()
	defer s.mu.Unlock()
	set := s.pins[host]
	if set == nil {
		set = make(map[Pin]bool)
		s.pins[host] = set
	}
	for _, c := range certs {
		set[PinCertificate(c)] = true
	}
}

// AddPin pins a raw pin value for host.
func (s *Store) AddPin(host string, p Pin) {
	s.mu.Lock()
	defer s.mu.Unlock()
	set := s.pins[host]
	if set == nil {
		set = make(map[Pin]bool)
		s.pins[host] = set
	}
	set[p] = true
}

// Pinned reports whether host has any pins configured.
func (s *Store) Pinned(host string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.pins[host]) > 0
}

// Pins returns host's pin set, sorted, for reporting.
func (s *Store) Pins(host string) []Pin {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Pin, 0, len(s.pins[host]))
	for p := range s.pins[host] {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Hosts returns the pinned host names, sorted.
func (s *Store) Hosts() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.pins))
	for h := range s.pins {
		out = append(out, h)
	}
	sort.Strings(out)
	return out
}

// ErrPinMismatch is returned when a presented chain matches none of a host's
// pins — the signal a pinned app raises under TLS interception.
type ErrPinMismatch struct {
	Host string
	// Presented are the pins of the presented chain, leaf first.
	Presented []Pin
}

// Error implements error.
func (e *ErrPinMismatch) Error() string {
	return fmt.Sprintf("pinning: %s presented %d certificates, none matching its pin set", e.Host, len(e.Presented))
}

// Check validates a presented chain (leaf first) against host's pins. A
// host with no pins passes vacuously — pinning is opt-in per app. A pinned
// host passes if any chain certificate's key matches any pin.
func (s *Store) Check(host string, chain []*x509.Certificate) error {
	// The pin set is the live map Add writes to, so the read lock covers
	// every lookup in it, not just fetching it.
	s.mu.RLock()
	defer s.mu.RUnlock()
	set := s.pins[host]
	if len(set) == 0 {
		return nil
	}
	presented := make([]Pin, 0, len(chain))
	for _, c := range chain {
		p := PinCertificate(c)
		if set[p] {
			return nil
		}
		presented = append(presented, p)
	}
	return &ErrPinMismatch{Host: host, Presented: presented}
}
