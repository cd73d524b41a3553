package ccer

// The erserve subsystem: the matching engine as a long-running service.
// The implementation lives in internal/serve; this file re-exports the
// constructor so library users can embed the service in their own
// processes, while cmd/erserve wraps it in a standalone binary.

import "github.com/ccer-go/ccer/internal/serve"

// ServeConfig tunes an embedded matching service (cache capacity, job
// workers, parallelism, body limits, per-route deadlines and admission
// control). The zero value works: requests run under default deadlines
// behind a bounded two-priority admission queue, and identical
// in-flight computations are coalesced; set the MatchTimeout /
// GenerateTimeout / SweepTimeout and AdmissionSlots / AdmissionDepth /
// AdmissionBudget fields to retune or disable the overload behaviour.
type ServeConfig = serve.Config

// Server is a resident Clean-Clean ER matching service: named graphs
// stay warm in a versioned in-memory store, match batches are answered
// through an LRU result cache, and threshold sweeps run as cancellable
// async jobs on a bounded worker pool. Mount Handler on an http.Server
// and Close it on shutdown.
type Server = serve.Server

// NewServer returns a started matching service (its job workers are
// running); the caller owns shutdown via Server.Close. With
// ServeConfig.DataDir set the store is durable: every acknowledged
// mutation is journaled to disk first, and NewServer recovers the
// committed graphs (checksum-verified) before serving. A recovery
// error is returned rather than serving an incomplete store. README
// documents it for embedding the service in a program; erserve builds
// its server through internal/serve.
func NewServer(cfg ServeConfig) (*Server, error) { return serve.New(cfg) }
