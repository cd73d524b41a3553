package cluster

import (
	"context"
	"errors"
	"net/http"
	"sync/atomic"
	"time"

	"github.com/ccer-go/ccer/internal/resilience"
)

// backend is one erserve node as the router sees it: a client, whose
// every call is one attempt (the router does its own cross-backend
// failover), plus the node's health state — the last readiness-probe
// verdict and a circuit breaker fed by both probe outcomes and passive
// request outcomes.
type backend struct {
	base    string
	client  *Client
	breaker *resilience.Breaker
	// ready is the last /readyz probe verdict. It starts true so a
	// router fronting healthy backends serves immediately; the first
	// probe round corrects it within ProbeInterval if not.
	ready atomic.Bool
	// probes and probeFailures count active health checks.
	probes        atomic.Int64
	probeFailures atomic.Int64
	// stopProbe cancels the backend's dedicated prober goroutine; set by
	// Router.startProber, invoked on RemoveBackend.
	stopProbe context.CancelFunc
}

func newBackend(base string, threshold int, cooldown time.Duration) *backend {
	b := &backend{
		base:    base,
		client:  &Client{Base: base},
		breaker: &resilience.Breaker{Threshold: threshold, Cooldown: cooldown},
	}
	b.ready.Store(true)
	return b
}

// Healthy reports whether the router should route new work here: the
// last probe said ready and the breaker is not refusing traffic. A
// half-open breaker reports Ready, so a cooled-down backend is eligible
// again — the next probe or request is its trial.
func (b *backend) Healthy() bool {
	return b.ready.Load() && b.breaker.Ready()
}

// observe feeds one request outcome into the breaker. Cancellation of
// our own making — a hedge loser, an abandoned failover branch — is
// not the backend's failure and is dropped on the floor; everything
// else counts. A success also flips ready on: a backend answering real
// traffic is serving no matter what a stale probe said.
func (b *backend) observe(err error) {
	switch {
	case err == nil:
		b.breaker.Success()
		b.ready.Store(true)
	case errors.Is(err, context.Canceled):
		// Our cancel, not their fault.
	default:
		b.breaker.Failure()
	}
}

// probe runs one active health check: GET /readyz under timeout. The
// verdict drives both the ready flag and the breaker — which is what
// lets a recovered backend rejoin without router restarts: once the
// breaker's cooldown elapses it goes half-open, the next probe is the
// trial request, and a 200 closes the circuit. It returns the backend's
// routability after the probe, so the prober can spot the
// unhealthy→healthy rejoin edge and trigger an immediate repair scan.
func (b *backend) probe(ctx context.Context, timeout time.Duration) bool {
	// A non-closed breaker makes this probe its trial request: Allow
	// consumes the half-open slot once the cooldown elapses, so the
	// probe's outcome is what closes or re-opens the circuit. (Success
	// while merely open is defined as a no-op straggler, so without
	// arming the slot here a crashed-and-recovered backend could never
	// rejoin.) While the circuit is still cooling, or another trial is
	// already in flight, there is nothing to learn — skip the round.
	if b.breaker.State() != resilience.BreakerClosed && !b.breaker.Allow() {
		return b.Healthy()
	}
	b.probes.Add(1)
	pctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	err := b.client.Ready(pctx)
	if err == nil {
		b.ready.Store(true)
		b.breaker.Success()
		return b.Healthy()
	}
	b.probeFailures.Add(1)
	b.ready.Store(false)
	// A shutting-down parent cancelling the prober is not a verdict.
	if !errors.Is(err, context.Canceled) {
		b.breaker.Failure()
	}
	return false
}

// BackendState is the debug view of one backend, served on
// GET /v1/cluster and summarized on /metrics.
type BackendState struct {
	URL           string `json:"url"`
	Ready         bool   `json:"ready"`
	Breaker       string `json:"breaker"`
	Opens         int64  `json:"breaker_opens_total"`
	HalfOpens     int64  `json:"breaker_half_opens_total"`
	Closes        int64  `json:"breaker_closes_total"`
	Probes        int64  `json:"probes_total"`
	ProbeFailures int64  `json:"probe_failures_total"`
}

func (b *backend) state() BackendState {
	opens, halfOpens, closes := b.breaker.Counts()
	return BackendState{
		URL:           b.base,
		Ready:         b.ready.Load(),
		Breaker:       b.breaker.State().String(),
		Opens:         opens,
		HalfOpens:     halfOpens,
		Closes:        closes,
		Probes:        b.probes.Load(),
		ProbeFailures: b.probeFailures.Load(),
	}
}

// statusOf classifies a reply for breaker accounting: a 5xx that is not
// a well-formed shed counts as a failure (the node is malfunctioning),
// while sheds, 4xx and 2xx count as the node doing its job. 503 sheds
// carry Retry-After; they mean "healthy but full", and opening the
// breaker on them would turn overload into outage.
func statusOf(reply *Reply) error {
	if reply.Status >= 500 && reply.Status != http.StatusServiceUnavailable {
		return errors.New("cluster: backend 5xx")
	}
	return nil
}
