package cluster

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"testing"
)

// TestDoReadsDeclaredLengthOnce: a reply that declares its length is
// read into one buffer of exactly that length. Over many reads of a
// 90 KiB reply, do allocates less than twice the reply per read, the
// exchange's own overhead and the stub server's included; regrowing a
// buffer from 512 bytes until the body fits allocates about four times
// the reply.
func TestDoReadsDeclaredLengthOnce(t *testing.T) {
	body := bytes.Repeat([]byte("0123456789abcdef"), 90<<10/16)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		_, _ = w.Write(body)
	}))
	defer ts.Close()
	c := &Client{Base: ts.URL}
	read := func() {
		reply, err := c.do(context.Background(), http.MethodGet, "/v1/match", "", nil)
		if err != nil || reply.Status != http.StatusOK || !bytes.Equal(reply.Body, body) {
			t.Fatalf("read: %v", err)
		}
	}
	read() // opens the kept-alive connection
	const reads = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range reads {
		read()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / reads; per > 2*uint64(len(body)) {
		t.Fatalf("each read of a %d-byte reply allocated %d bytes, want under %d", len(body), per, 2*len(body))
	}
}
