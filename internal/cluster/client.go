package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/ccer-go/ccer/internal/resilience"
)

// APIError is a non-2xx reply from an erserve node, carrying the
// structured error body (message plus the machine-readable shed-reason
// vocabulary: queue_full, queue_timeout, degraded, sweep_backlog,
// shutting_down, deadline) and the server's Retry-After hint when it
// sent one.
type APIError struct {
	Status     int
	Reason     string
	Message    string
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	if e.Reason != "" {
		return fmt.Sprintf("cluster: server status %d (%s): %s", e.Status, e.Reason, e.Message)
	}
	return fmt.Sprintf("cluster: server status %d: %s", e.Status, e.Message)
}

// Reply is one raw HTTP exchange: the exact bytes the server sent, the
// unit the router proxies so a routed response is byte-identical to
// asking the backend directly.
type Reply struct {
	Status int
	Header http.Header
	Body   []byte
}

// retryAfter parses the reply's Retry-After header (whole seconds, the
// only form erserve emits); 0 when absent or unparseable.
func (rp *Reply) retryAfter() time.Duration {
	if rp == nil {
		return 0
	}
	secs, err := strconv.Atoi(rp.Header.Get("Retry-After"))
	if err != nil || secs <= 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// Client is a typed client for one erserve base URL (a node or a
// router) with deadline-budgeted retries: transient failures — a
// connection that never got a response started, or a 5xx/shed reply —
// are retried under decorrelated-jitter exponential backoff until the
// context expires or MaxRetries is spent, and a server-provided
// Retry-After always overrides the computed backoff (the server knows
// its own recovery horizon better than our jitter does).
//
// Retry safety is per-call: idempotent calls (ListSync, EdgeList and
// the conditional sync writes, which apply only what is newer) retry on
// any transient failure; a non-idempotent request retries a transport
// error only when the connection was refused outright, meaning the
// request provably never reached a server. A mutation that died
// mid-flight is surfaced, not re-sent.
type Client struct {
	// Base is the server's base URL, e.g. "http://127.0.0.1:8080".
	Base string
	// HTTP is the transport; nil means http.DefaultClient. Deadlines
	// come from the per-call context, not a client timeout.
	HTTP *http.Client
	// MaxRetries caps retries per call (attempts = MaxRetries+1).
	// 0 means 3; negative disables retries entirely (the router does
	// its own cross-backend failover and wants one attempt per node).
	MaxRetries int
	// RetryBase and RetryCap bound the backoff between attempts;
	// 0 means 25ms base, 1s cap.
	RetryBase time.Duration
	RetryCap  time.Duration
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

func (c *Client) maxRetries() int {
	switch {
	case c.MaxRetries < 0:
		return 0
	case c.MaxRetries == 0:
		return 3
	}
	return c.MaxRetries
}

// connRefused reports whether err is a transport error that proves the
// request never reached a server process: the dial was refused (nothing
// listening — the crashed-backend signature) or could not resolve a
// route. Such failures are safe to retry even for mutations.
func connRefused(err error) bool {
	if errors.Is(err, syscall.ECONNREFUSED) || errors.Is(err, syscall.ENETUNREACH) {
		return true
	}
	var op *net.OpError
	return errors.As(err, &op) && op.Op == "dial"
}

// retryable decides whether one attempt's outcome warrants another.
func retryable(reply *Reply, err error, idempotent bool) bool {
	if err != nil {
		if idempotent {
			return true // re-running a read is always safe
		}
		return connRefused(err)
	}
	switch {
	case reply.Status == http.StatusServiceUnavailable:
		// A shed: the server refused before doing the work, so a
		// retry duplicates nothing regardless of idempotency.
		return true
	case reply.Status >= 500:
		return idempotent
	}
	return false
}

// do runs one HTTP exchange against path with retries as described on
// Client. A 2xx (or any non-retryable status, e.g. a 404 the caller
// branches on) returns the reply; exhausted retries return the last
// outcome — the reply for status failures, the error for transport
// failures.
func (c *Client) do(ctx context.Context, method, path, contentType string, body []byte, idempotent bool) (*Reply, error) {
	base, cap := c.RetryBase, c.RetryCap
	if base <= 0 {
		base = 25 * time.Millisecond
	}
	if cap <= 0 {
		cap = time.Second
	}
	bo := &resilience.Backoff{Base: base, Cap: cap}
	var lastReply *Reply
	var lastErr error
	for attempt := 0; ; attempt++ {
		reply, err := c.once(ctx, method, path, contentType, body)
		if err == nil && !retryable(reply, nil, idempotent) {
			return reply, nil
		}
		lastReply, lastErr = reply, err
		if err != nil && !retryable(nil, err, idempotent) {
			return nil, err
		}
		if attempt >= c.maxRetries() || ctx.Err() != nil {
			break
		}
		// The server's Retry-After hint wins over computed backoff.
		if ra := reply.retryAfter(); ra > 0 {
			if resilience.SleepCtx(ctx, ra) != nil {
				break
			}
			bo.Reset()
			continue
		}
		if bo.Sleep(ctx) != nil {
			break
		}
	}
	if lastErr != nil {
		return nil, fmt.Errorf("cluster: %s %s%s: %w", method, c.Base, path, lastErr)
	}
	return lastReply, nil
}

// once runs a single attempt.
func (c *Client) once(ctx context.Context, method, path, contentType string, body []byte) (*Reply, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, rd)
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return &Reply{Status: resp.StatusCode, Header: resp.Header, Body: raw}, nil
}

// apiError converts a non-2xx reply into an *APIError.
func apiError(reply *Reply) error {
	var er struct {
		Error  string `json:"error"`
		Reason string `json:"reason"`
	}
	_ = json.Unmarshal(reply.Body, &er)
	if er.Error == "" {
		er.Error = strings.TrimSpace(string(reply.Body))
	}
	return &APIError{
		Status:     reply.Status,
		Reason:     er.Reason,
		Message:    er.Error,
		RetryAfter: reply.retryAfter(),
	}
}

// decode unmarshals a 2xx reply into out (when non-nil), or surfaces
// the structured error.
func decode(reply *Reply, out any) error {
	if reply.Status < 200 || reply.Status > 299 {
		return apiError(reply)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(reply.Body, out)
}

// SyncEntry is one name in a node's cheap sync listing: the
// replica-comparison key (version + hex checksum) for a live graph, or
// just the deletion version for a tombstone.
type SyncEntry struct {
	Name     string `json:"name"`
	Version  int64  `json:"version"`
	Checksum string `json:"checksum,omitempty"`
}

// SyncListing is the body of GET /v1/graphs?fields=sync: every live
// graph's (version, checksum) plus the node's tombstones — everything an
// anti-entropy scan needs to compare replicas without downloading a
// single edge list.
type SyncListing struct {
	Graphs     []SyncEntry `json:"graphs"`
	Tombstones []SyncEntry `json:"tombstones"`
}

// graphPath is the backend path of a method's request about graph
// name, with query appended: POST uploads to /v1/graphs?name=..., and
// GET and DELETE address /v1/graphs/{name}. Every backend path that
// names a graph is built here, with the name escaped, so a name holding
// '?', '#', '%', '&', ' ' or '/' reaches the backend as itself.
func graphPath(method, name, query string) string {
	if method == http.MethodPost {
		path := "/v1/graphs?name=" + url.QueryEscape(name)
		if query != "" {
			path += "&" + query
		}
		return path
	}
	path := "/v1/graphs/" + url.PathEscape(name)
	if query != "" {
		path += "?" + query
	}
	return path
}

// ListSync fetches the node's cheap sync listing.
func (c *Client) ListSync(ctx context.Context) (*SyncListing, error) {
	reply, err := c.do(ctx, http.MethodGet, "/v1/graphs?fields=sync", "", nil, true)
	if err != nil {
		return nil, err
	}
	var out SyncListing
	if err := decode(reply, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// EdgeList downloads a graph in the edge-list wire format — the bytes a
// repair stream forwards verbatim to a stale replica.
func (c *Client) EdgeList(ctx context.Context, name string) ([]byte, error) {
	reply, err := c.do(ctx, http.MethodGet, graphPath(http.MethodGet, name, "format=edgelist"), "", nil, true)
	if err != nil {
		return nil, err
	}
	if reply.Status != http.StatusOK {
		return nil, apiError(reply)
	}
	return reply.Body, nil
}

// SyncPutEdgeList uploads an edge list as name at exactly version (the
// source replica's), via the conditional sync mode of POST /v1/graphs.
// The server applies it only if it is genuinely newer, so the call is
// idempotent and safe to retry; applied reports whether state changed.
func (c *Client) SyncPutEdgeList(ctx context.Context, name string, version int64, edgeList []byte) (applied bool, err error) {
	path := graphPath(http.MethodPost, name, "sync_version="+strconv.FormatInt(version, 10))
	reply, err := c.do(ctx, http.MethodPost, path, "text/plain", edgeList, true)
	if err != nil {
		return false, err
	}
	if reply.Status == http.StatusCreated {
		return true, nil
	}
	return false, decode(reply, nil)
}

// SyncDelete propagates a tombstone: delete name on the node if its copy
// is at or below version. Conditional like SyncPutEdgeList — "already
// gone" is success, not a 404.
func (c *Client) SyncDelete(ctx context.Context, name string, version int64) (applied bool, err error) {
	path := graphPath(http.MethodDelete, name, "sync_version="+strconv.FormatInt(version, 10))
	reply, err := c.do(ctx, http.MethodDelete, path, "", nil, true)
	if err != nil {
		return false, err
	}
	var out struct {
		Applied bool `json:"applied"`
	}
	if err := decode(reply, &out); err != nil {
		return false, err
	}
	return out.Applied, nil
}

// Ready probes GET /readyz once (no retries — a readiness probe wants
// the node's state now, not its state after backoff).
func (c *Client) Ready(ctx context.Context) error {
	reply, err := c.once(ctx, http.MethodGet, "/readyz", "", nil)
	if err != nil {
		return err
	}
	if reply.Status != http.StatusOK {
		return apiError(reply)
	}
	return nil
}
