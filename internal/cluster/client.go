package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
)

// APIError is a non-2xx reply from an erserve node, carrying the
// structured error body: the message plus the machine-readable
// shed-reason vocabulary (queue_full, queue_timeout, degraded,
// sweep_backlog, shutting_down, deadline).
type APIError struct {
	Status  int
	Reason  string
	Message string
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

// Client is a typed client for one erserve base URL (a node or a
// router). Every call is exactly one HTTP exchange under the caller's
// context, and none is retried: the router fails a read over to the
// next replica itself, and the repair loop retries a failed stream on
// its next scan.
type Client struct {
	// Base is the server's base URL, e.g. "http://127.0.0.1:8080".
	Base string
}

// do runs one HTTP exchange against path and returns the reply, whatever
// its status, once its whole body has arrived. A body of declared length
// up to maxBodyBytes is read into one buffer of exactly that length
// rather than regrown from 512 bytes; a body of unknown length (a
// streamed edge list, a chunked listing) or one declaring more than the
// cap is read as it comes, so a bogus header cannot demand a giant
// allocation. A reply to HEAD declares the length its GET body would
// have but carries none, so it is read as it comes too: as an empty
// body. The transport's body reader reports a body that ends before its
// declared length as io.ErrUnexpectedEOF, so the router fails over
// instead of relaying a truncated reply.
func (c *Client) do(ctx context.Context, method, path, contentType string, body []byte) (*Reply, error) {
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
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var raw []byte
	if n := resp.ContentLength; n >= 0 && n <= maxBodyBytes && method != http.MethodHead {
		raw = make([]byte, n)
		_, err = io.ReadFull(resp.Body, raw)
	} else {
		raw, err = io.ReadAll(resp.Body)
	}
	if err != nil {
		return nil, fmt.Errorf("cluster: read reply to %s %s%s: %w", method, c.Base, path, err)
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
	return &APIError{Status: reply.Status, Reason: er.Reason, Message: er.Error}
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
	reply, err := c.do(ctx, http.MethodGet, "/v1/graphs?fields=sync", "", nil)
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
	reply, err := c.do(ctx, http.MethodGet, graphPath(http.MethodGet, name, "format=edgelist"), "", nil)
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
// The server applies it only if it is genuinely newer, so repeating the
// call is harmless; applied reports whether state changed.
func (c *Client) SyncPutEdgeList(ctx context.Context, name string, version int64, edgeList []byte) (applied bool, err error) {
	path := graphPath(http.MethodPost, name, "sync_version="+strconv.FormatInt(version, 10))
	reply, err := c.do(ctx, http.MethodPost, path, "text/plain", edgeList)
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
	reply, err := c.do(ctx, http.MethodDelete, path, "", nil)
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

// Ready probes GET /readyz.
func (c *Client) Ready(ctx context.Context) error {
	reply, err := c.do(ctx, http.MethodGet, "/readyz", "", nil)
	if err != nil {
		return err
	}
	if reply.Status != http.StatusOK {
		return apiError(reply)
	}
	return nil
}
