// Package netalyzr reimplements the measurement client of §4.1: it reads a
// device's root certificate store, probes a list of popular domains over
// real TLS recording the full presented trust chain, and emits a session
// report. The paper's dataset is 15,970 such executions; here the client
// runs against the in-process TLS internet (or through an interception
// proxy, which is how §7's finding was made).
package netalyzr

import (
	"context"
	"crypto/tls"
	"crypto/x509"
	"fmt"
	"time"

	"tangledmass/internal/device"
	"tangledmass/internal/obs"
	"tangledmass/internal/resilient"
	"tangledmass/internal/rootstore"
	"tangledmass/internal/tlsnet"
	"tangledmass/internal/trusteval"
)

// ProbeResult is one domain's TLS trust-chain check.
type ProbeResult struct {
	Target tlsnet.HostPort
	// Chain is the chain the server presented, leaf first. Netalyzr records
	// it regardless of whether it validates.
	Chain []*x509.Certificate
	// DeviceValidated reports whether the presented chain verifies against
	// the device's effective root store (the Verdict's chain layer, before
	// any app policy override).
	DeviceValidated bool
	// Verdict is the full trust-evaluation outcome for this probe under
	// the session's app policy.
	Verdict trusteval.Verdict
	// AppAccepted reports whether the session's app, under its validation
	// policy, would proceed with this connection. An accept-all app
	// "accepts" a chain the device store rejects.
	AppAccepted bool
	// Err records a connection or handshake failure that survived the
	// retry policy. The probe fails; the session degrades gracefully and
	// carries on with the remaining targets.
	Err error
	// ErrKind is Err's stable resilient.Kind label ("refused", "reset",
	// "timeout", "eof", …) — the typed form the per-session fault ledger
	// and the collector aggregate count by.
	ErrKind string
}

// Report is one Netalyzr session.
type Report struct {
	Profile device.Profile
	Rooted  bool
	// Store is the device's effective trust store at probe time.
	Store *rootstore.Store
	// Policy is the validation policy the session's app profile ran
	// under (zero value: strict platform default).
	Policy device.ValidationPolicy
	// Probes holds one result per target, in target order.
	Probes []ProbeResult
}

// Client runs measurement sessions. Construct with New.
type Client struct {
	device  *device.Device
	dialer  tlsnet.Dialer
	targets []tlsnet.HostPort
	at      time.Time
	timeout time.Duration
	retry   *resilient.Retrier
	obs     *obs.Observer
	session string
	policy  device.ValidationPolicy
	pins    trusteval.PinChecker
	engine  *trusteval.Engine
}

// Option configures a Client.
type Option func(*Client)

// WithTargets sets the domains to probe. The default is the full
// tlsnet.ProbeTargets() list.
func WithTargets(targets []tlsnet.HostPort) Option {
	return func(c *Client) { c.targets = targets }
}

// WithValidationTime pins the chain-validation clock — callers should pass
// certgen.Epoch. Zero means the Unix epoch of the handshake.
func WithValidationTime(at time.Time) Option {
	return func(c *Client) { c.at = at }
}

// WithProbeTimeout bounds one connection attempt end to end — dial,
// handshake, chain capture — so a stalled server costs one deadline, never
// the whole session. Zero (the default) means 15s.
func WithProbeTimeout(d time.Duration) Option {
	return func(c *Client) { c.timeout = d }
}

// WithRetryPolicy overrides the transient-probe-failure retry policy
// (refused connects, resets, timeouts). The default is 3 attempts with
// short backoff.
func WithRetryPolicy(r *resilient.Retrier) Option {
	return func(c *Client) { c.retry = r }
}

// WithObserver attaches the observer probe counters, store-read counters
// and probe spans report through. The default (nil) is silent.
func WithObserver(o *obs.Observer) Option {
	return func(c *Client) { c.obs = o }
}

// WithSession labels this client's spans with a session identifier
// ("session-17"); the campaign sets it per fleet session. The default is
// "session".
func WithSession(id string) Option {
	return func(c *Client) { c.session = id }
}

// WithPolicy sets the validation policy of the app profile this session
// runs as. The default is the strict platform behaviour.
func WithPolicy(p device.ValidationPolicy) Option {
	return func(c *Client) { c.policy = p }
}

// WithPins enables the engine's pin layer (typically a *pinning.Store).
func WithPins(p trusteval.PinChecker) Option {
	return func(c *Client) { c.pins = p }
}

// WithEngine shares an externally-built trust-evaluation engine (and its
// chain cache) across sessions. The default builds a
// per-client engine from the client's validation time, pins and observer.
func WithEngine(e *trusteval.Engine) Option {
	return func(c *Client) { c.engine = e }
}

// New builds a measurement client for the handset and its network path —
// direct to the origin, or through an interception proxy when the device's
// traffic is tunneled (§7).
func New(dev *device.Device, dialer tlsnet.Dialer, opts ...Option) (*Client, error) {
	if dev == nil || dialer == nil {
		return nil, fmt.Errorf("netalyzr: client needs a device and a dialer")
	}
	c := &Client{device: dev, dialer: dialer, session: "session"}
	for _, opt := range opts {
		opt(c)
	}
	if c.timeout <= 0 {
		c.timeout = 15 * time.Second
	}
	if c.retry == nil {
		c.retry = resilient.NewRetrier(resilient.Policy{
			MaxAttempts: 3,
			BaseDelay:   10 * time.Millisecond,
			MaxDelay:    200 * time.Millisecond,
		}, 0).WithObserver(c.obs)
	}
	if c.engine == nil {
		c.engine = trusteval.New(c.at,
			trusteval.WithPins(c.pins),
			trusteval.WithObserver(c.obs))
	}
	return c, nil
}

// Run executes one session: store collection plus one probe per target,
// all within ctx.
func (c *Client) Run(ctx context.Context) (*Report, error) {
	targets := c.targets
	if targets == nil {
		targets = tlsnet.ProbeTargets()
	}
	span := c.obs.StartSpan(c.session, KeySessionSpan)
	defer span.End()
	c.obs.Counter(KeyStoreReads).Inc()
	rep := &Report{
		Profile: c.device.Profile,
		Rooted:  c.device.Rooted(),
		Store:   c.device.EffectiveStore(),
		Policy:  c.policy,
	}
	c.obs.Counter(KeyStoreCerts).Add(int64(rep.Store.Len()))
	for _, hp := range targets {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("netalyzr: session canceled: %w", err)
		}
		rep.Probes = append(rep.Probes, c.probe(ctx, rep.Store, hp))
	}
	return rep, nil
}

// probe fetches and evaluates one target's chain, retrying transient
// transport failures under the client's policy.
func (c *Client) probe(ctx context.Context, store *rootstore.Store, hp tlsnet.HostPort) ProbeResult {
	res := ProbeResult{Target: hp}
	c.obs.Counter(KeyProbesTotal).Inc()
	span := c.obs.StartSpan(c.session, KeyProbeSpan)
	err := c.retry.Do(ctx, func(int) error {
		presented, err := c.fetchChain(ctx, hp)
		if err != nil {
			return err
		}
		res.Chain = presented
		return nil
	})
	span.End()
	if err != nil {
		c.obs.Counter(KeyProbesFailed).Inc()
		res.Err = err
		res.ErrKind = resilient.Kind(err)
		return res
	}
	res.Verdict = c.engine.Evaluate(trusteval.Request{
		Chain:  res.Chain,
		Host:   hp.Host,
		Port:   hp.Port,
		Store:  store,
		Policy: c.policy,
	})
	res.DeviceValidated = res.Verdict.Chain == trusteval.OutcomePass
	res.AppAccepted = res.Verdict.Accepted
	if !res.DeviceValidated {
		c.obs.Counter(KeyProbesUntrusted).Inc()
		if res.AppAccepted {
			// The device store rejected the chain but the app proceeded —
			// the app-misvalidation signal the attribution analysis counts.
			c.obs.Counter(KeyProbesMisvalidated).Inc()
		}
	}
	return res
}

// fetchChain runs one dial-and-handshake attempt under the probe deadline
// and returns the presented chain.
func (c *Client) fetchChain(ctx context.Context, hp tlsnet.HostPort) ([]*x509.Certificate, error) {
	// The per-attempt context bounds dial, handshake and chain capture
	// together; its deadline also arms the conn deadline below.
	ctx, cancel := context.WithTimeout(ctx, c.timeout)
	defer cancel()
	c.obs.Counter(KeyDialsTotal).Inc()
	conn, err := c.dialer.DialSite(ctx, hp.Host, hp.Port)
	if err != nil {
		c.obs.Counter(KeyDialErrors).Inc()
		return nil, fmt.Errorf("netalyzr: dialing %s: %w", hp, err)
	}
	// The deadline covers the whole attempt: without it a server that
	// accepts and then stalls mid-handshake would hang the session forever.
	deadline, _ := ctx.Deadline()
	if err := conn.SetDeadline(deadline); err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("netalyzr: arming deadline for %s: %w", hp, err)
	}
	// InsecureSkipVerify: the client records whatever the server presents;
	// trust evaluation happens separately against the device store.
	tconn := tls.Client(conn, &tls.Config{
		ServerName:         hp.Host,
		InsecureSkipVerify: true,
	})
	// tconn owns conn from here: closing tconn closes the underlying conn,
	// so exactly one Close runs on every path.
	if err := tconn.HandshakeContext(ctx); err != nil {
		_ = tconn.Close()
		return nil, fmt.Errorf("netalyzr: handshake with %s: %w", hp, err)
	}
	presented := tconn.ConnectionState().PeerCertificates
	_ = tconn.Close()
	return presented, nil
}

// FaultTally is the session's fault ledger: failed probes counted by their
// typed ErrKind. A handset on a lossy mobile network reports a partial
// session rather than none, and the tally says exactly what was lost.
func (r *Report) FaultTally() map[string]int {
	out := map[string]int{}
	for _, p := range r.Probes {
		if p.Err != nil {
			kind := p.ErrKind
			if kind == "" {
				kind = "error"
			}
			out[kind]++
		}
	}
	return out
}

// UntrustedProbes returns the probes whose chains failed device validation —
// the signal that surfaced the §7 interception.
func (r *Report) UntrustedProbes() []ProbeResult {
	var out []ProbeResult
	for _, p := range r.Probes {
		if p.Err == nil && !p.DeviceValidated {
			out = append(out, p)
		}
	}
	return out
}

// MisvalidatedProbes returns the probes the app accepted despite the
// device store rejecting the chain — interception the app's own validation
// policy made possible.
func (r *Report) MisvalidatedProbes() []ProbeResult {
	var out []ProbeResult
	for _, p := range r.Probes {
		if p.Err == nil && !p.DeviceValidated && p.AppAccepted {
			out = append(out, p)
		}
	}
	return out
}

// ChainRootSubjects summarizes the distinct root subjects presented across
// all probes — a quick fingerprint of who is signing this session's TLS.
func (r *Report) ChainRootSubjects() []string {
	seen := map[string]bool{}
	var out []string
	for _, p := range r.Probes {
		if len(p.Chain) == 0 {
			continue
		}
		top := p.Chain[len(p.Chain)-1]
		s := top.Issuer.String()
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}
