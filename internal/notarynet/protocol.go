// Package notarynet puts the Notary on the network, mirroring the real
// deployment the paper draws on ("Extracting Certificates from Live
// Traffic: A Near Real-Time SSL Notary Service"): sensors at participating
// networks stream observed chains to a central service, and analysis
// clients query it.
//
// The package is a dispatch table over internal/wire, which owns the
// transport (newline-delimited JSON over TCP, one response line per
// request, reconnect and retry, bounded shutdown) and the idempotency
// window. What lives here is the protocol: every request carries an "op",
// certificates travel as base64 DER, and dispatch maps each op onto the
// server's View (reads) or Ingester (writes).
package notarynet

import (
	"crypto/x509"
	"encoding/base64"
	"fmt"

	"tangledmass/internal/corpus"
)

// Request is one protocol message from client to server.
type Request struct {
	// Op selects the operation: "observe", "observe_batch", "observe_ca",
	// "has_record", "stats", "validate".
	Op string `json:"op"`
	// ID is a client-unique idempotency token. A client that re-sends a
	// mutating request after a lost response keeps the ID, and the server
	// acknowledges the duplicate without applying it twice.
	ID string `json:"id,omitempty"`
	// Chain is the observed chain, leaf first, base64 DER (observe).
	Chain []string `json:"chain,omitempty"`
	// Batch carries many observations in one request (observe_batch) — the
	// sensor-side amortization that lets loadgen sustain millions of
	// sessions without a round trip each.
	Batch []BatchItem `json:"batch,omitempty"`
	// Cert is a single base64 DER certificate (observe_ca, has_record).
	Cert string `json:"cert,omitempty"`
	// Port is the observation port (observe, observe_ca).
	Port int `json:"port,omitempty"`
	// Roots is a base64 DER root set (validate).
	Roots []string `json:"roots,omitempty"`
	// StoreName labels the validate result.
	StoreName string `json:"store_name,omitempty"`
}

// Response is one protocol message from server to client.
type Response struct {
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`

	// Stats fields.
	Unique    int   `json:"unique,omitempty"`
	Unexpired int   `json:"unexpired,omitempty"`
	Sessions  int64 `json:"sessions,omitempty"`

	// HasRecord field.
	Recorded bool `json:"recorded,omitempty"`

	// Validate fields.
	Validated    int   `json:"validated,omitempty"`
	PerRootCount []int `json:"per_root_count,omitempty"` // aligned with request root order

	// Applied is how many observations an observe_batch recorded.
	Applied int `json:"applied,omitempty"`
}

// Status implements wire.Reply.
func (r Response) Status() (bool, string) { return r.OK, r.Error }

// BatchItem is one observation inside an observe_batch request.
type BatchItem struct {
	// Chain is the observed chain, leaf first, base64 DER.
	Chain []string `json:"chain"`
	// Port is the observation port.
	Port int `json:"port,omitempty"`
}

// EncodeCert renders a certificate for the wire.
func EncodeCert(c *x509.Certificate) string {
	return base64.StdEncoding.EncodeToString(c.Raw)
}

// DecodeCert parses a wire certificate through the shared corpus: a
// certificate already seen by this process (in a store, a tap, a snapshot)
// decodes to its canonical interned instance without re-parsing.
func DecodeCert(s string) (*x509.Certificate, error) {
	der, err := base64.StdEncoding.DecodeString(s)
	if err != nil {
		return nil, fmt.Errorf("notarynet: bad base64: %w", err)
	}
	ref, err := corpus.Intern(der)
	if err != nil {
		return nil, fmt.Errorf("notarynet: bad certificate: %w", err)
	}
	return corpus.CertOf(ref), nil
}

// EncodeChain renders a chain for the wire.
func EncodeChain(chain []*x509.Certificate) []string {
	out := make([]string, len(chain))
	for i, c := range chain {
		out[i] = EncodeCert(c)
	}
	return out
}

// DecodeChain parses a wire chain.
func DecodeChain(ss []string) ([]*x509.Certificate, error) {
	out := make([]*x509.Certificate, len(ss))
	for i, s := range ss {
		c, err := DecodeCert(s)
		if err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}
