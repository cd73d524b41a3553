package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Op is one HTTP request of a workload. Ops are generated from the seed
// before any server starts; a server sees only Method, Path and Body.
type Op struct {
	Method string
	Path   string
	Body   []byte
	// Base overrides the loader's base URL (set-up warms every replica of
	// a routed graph directly).
	Base string
	// Timed marks the workload's timed operation; only timed ops feed the
	// latency percentiles.
	Timed bool
	// At is the scheduled send time, as an offset from the phase start.
	At time.Duration
	// Dep, when >= 0, is the index of an earlier op of the same phase
	// that must complete before this one is sent: a DELETE waits for the
	// write that created its graph.
	Dep int
	// after is the tick whose first op Dep resolves to (-1 for none);
	// tick is the op's own tick.
	after, tick int
	// Check is the expected outcome, interpreted by the verifier.
	Check any
}

// Result is the driver's record of one op. Times are offsets from the
// phase start.
type Result struct {
	Sent   bool
	Status int
	Err    error
	Size   int
	Sum    uint32 // CRC-32C of the response body
	Body   []byte // retained only when the verifier asks for it

	Due      time.Duration // scheduled send time
	Claim    time.Duration // a connection took the op
	Ready    time.Duration // due, a connection free and the dependency done
	Dispatch time.Duration // request handed to the connection
	Done     time.Duration // last response byte read
}

// OK reports a sent op answered 2xx without a transport error.
func (r *Result) OK() bool { return r.Sent && r.Err == nil && r.Status >= 200 && r.Status < 300 }

// Latency counts from the scheduled send, so a stall delays every op
// queued behind it instead of hiding them (no coordinated omission).
func (r *Result) Latency() time.Duration { return r.Done - r.Due }

// ConnWait is how long the op waited for one of the sending connections.
func (r *Result) ConnWait() time.Duration { return max(0, r.Claim-r.Due) }

// Lateness is how late the driver itself sent the op once nothing held it
// back; a run with high lateness measured the driver, not the server.
func (r *Result) Lateness() time.Duration { return r.Dispatch - r.Ready }

// Service is the time from dispatch to the last response byte.
func (r *Result) Service() time.Duration { return r.Done - r.Dispatch }

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Loader sends ops open-loop: each op leaves at its scheduled time on the
// next free connection of a fixed set, one per sending goroutine, whether
// or not earlier ops have been answered.
type Loader struct {
	base    string
	clients []*http.Client
	// keep reports whether a response body must be retained for
	// verification; it is called from every sending goroutine.
	keep func(op *Op, r *Result) bool
}

func newLoader(base string, conns int, keep func(*Op, *Result) bool) *Loader {
	l := &Loader{base: base, keep: keep}
	for i := 0; i < conns; i++ {
		l.clients = append(l.clients, &http.Client{
			Transport: &http.Transport{
				DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
			Timeout: 2 * time.Minute,
		})
	}
	return l
}

func (l *Loader) close() {
	for _, c := range l.clients {
		c.CloseIdleConnections()
	}
}

// run sends ops on their schedule and returns once every sent op has
// finished. The backlog is the number of timed ops due but not yet taken
// by a connection; run reports its maximum. abort, when non-nil, is
// polled with the backlog, and a true return stops further sends. Ops
// never sent keep Sent false, as do ops whose dependency failed.
func (l *Loader) run(ctx context.Context, ops []Op, abort func(backlog int) bool) (res []Result, maxBacklog int) {
	res = make([]Result, len(ops))
	done := make([]chan struct{}, len(ops))
	timedBefore := make([]int, len(ops)+1) // timed ops among ops[:i]
	for i := range done {
		done[i] = make(chan struct{})
		timedBefore[i+1] = timedBefore[i]
		if ops[i].Timed {
			timedBefore[i+1]++
		}
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range l.clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			var buf bytes.Buffer
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				l.send(ctx, c, &buf, start, ops, res, done, i)
			}
		}(c)
	}
	finished := make(chan struct{})
	go func() {
		wg.Wait()
		close(finished)
	}()
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-finished:
			return res, maxBacklog
		case <-tick.C:
			elapsed := time.Since(start)
			due := sort.Search(len(ops), func(i int) bool { return ops[i].At > elapsed })
			claimed := int(min(next.Load(), int64(len(ops))))
			backlog := max(0, timedBefore[due]-timedBefore[min(claimed, due)])
			maxBacklog = max(maxBacklog, backlog)
			if abort != nil && abort(backlog) {
				cancel()
			}
		}
	}
}

// send waits until op i may go — its dependency done and its time due —
// then sends it and records the result. Cancellation stops only ops not
// yet dispatched; one in flight runs to its end.
func (l *Loader) send(ctx context.Context, c *http.Client, buf *bytes.Buffer, start time.Time, ops []Op, res []Result, done []chan struct{}, i int) {
	defer close(done[i])
	op, r := &ops[i], &res[i]
	r.Due = op.At
	r.Claim = time.Since(start)
	r.Ready = max(r.Due, r.Claim)
	if op.Dep >= 0 {
		select {
		case <-done[op.Dep]:
		default:
			select {
			case <-done[op.Dep]:
				r.Ready = max(r.Ready, time.Since(start))
			case <-ctx.Done():
				return
			}
		}
		if !res[op.Dep].OK() {
			return // the graph this op deletes was never created
		}
	}
	if wait := r.Due - time.Since(start); wait > 0 {
		t := time.NewTimer(wait)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return
		}
	}
	r.Dispatch = time.Since(start)
	r.Sent = true
	l.do(c, buf, op, r)
	r.Done = time.Since(start)
}

func (l *Loader) do(c *http.Client, buf *bytes.Buffer, op *Op, r *Result) {
	var body io.Reader = http.NoBody
	if op.Body != nil {
		body = bytes.NewReader(op.Body)
	}
	base := op.Base
	if base == "" {
		base = l.base
	}
	req, err := http.NewRequest(op.Method, base+op.Path, body)
	if err != nil {
		r.Err = err
		return
	}
	if op.Body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		r.Err = err
		return
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	r.Status = resp.StatusCode
	if err != nil {
		r.Err = err
		return
	}
	r.Size = buf.Len()
	r.Sum = crc32.Checksum(buf.Bytes(), castagnoli)
	if l.keep != nil && l.keep(op, r) {
		r.Body = bytes.Clone(buf.Bytes())
	}
}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// percentile returns the q-quantile of sorted by nearest rank. It refuses
// a quantile with fewer than minBeyond samples beyond it, so p99 needs at
// least 1000 samples.
func percentile(sorted []float64, q float64) (float64, error) {
	n := len(sorted)
	if n == 0 || float64(n)*(1-q) < minBeyond-1e-9 {
		return 0, fmt.Errorf("p%g needs %d samples beyond it; have %d samples", 100*q, minBeyond, n)
	}
	k := int(math.Ceil(q*float64(n)-1e-9)) - 1
	return sorted[max(k, 0)], nil
}

// windowSamples is the size of the windows windowed splits a phase into:
// enough for a p99 in each.
const windowSamples = 1000

// windowed splits latencies, in schedule order, into as many consecutive
// windows of at least windowSamples as they fill (at most five) and
// returns the median over the windows of each window's q-quantile. A
// burst — a collection, a compaction, a neighbour's load — then moves one
// window's tail, not the reported one. With fewer samples than two
// windows it is percentile over them all.
func windowed(seq []float64, q float64) (float64, error) {
	w := min(5, len(seq)/windowSamples)
	if w < 2 {
		all := append([]float64(nil), seq...)
		sort.Float64s(all)
		return percentile(all, q)
	}
	vals := make([]float64, w)
	for k := range vals {
		part := append([]float64(nil), seq[k*len(seq)/w:(k+1)*len(seq)/w]...)
		sort.Float64s(part)
		v, err := percentile(part, q)
		if err != nil {
			return 0, err
		}
		vals[k] = v
	}
	sort.Float64s(vals)
	if w%2 == 0 {
		return (vals[w/2-1] + vals[w/2]) / 2, nil
	}
	return vals[w/2], nil
}

// tailQuantile is the highest reported quantile an n-sample set supports
// (0 when it supports none).
func tailQuantile(n int) float64 {
	for _, q := range []float64{0.999, 0.99, 0.95, 0.9, 0.5} {
		if float64(n)*(1-q) >= minBeyond-1e-9 {
			return q
		}
	}
	return 0
}

// phaseStats is the client-side summary of one phase.
type phaseStats struct {
	name                     string
	sent, ok, failed         int
	timed, timedOK           int
	lat                      []float64 // ms, successful timed ops, sorted
	latSeq                   []float64 // the same in schedule order
	service, connWait, late  []float64 // ms, every sent op
	timedService, timedBytes float64   // means over successful timed ops
	misses                   int       // timed ops failed or over the limit
	maxBacklog               int
}

// summarize builds a phase's statistics. bad marks ops whose output the
// verifier rejected (nil before verification); they count as failed.
func summarize(name string, ops []Op, res []Result, bad []bool, limit time.Duration, maxBacklog int) phaseStats {
	st := phaseStats{name: name, maxBacklog: maxBacklog}
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	for i := range ops {
		r := &res[i]
		if !r.Sent {
			continue
		}
		st.sent++
		ok := r.OK() && (bad == nil || !bad[i])
		if ok {
			st.ok++
		} else {
			st.failed++
		}
		st.service = append(st.service, ms(r.Service()))
		st.connWait = append(st.connWait, ms(r.ConnWait()))
		st.late = append(st.late, ms(r.Lateness()))
		if !ops[i].Timed {
			continue
		}
		st.timed++
		if !ok || (limit > 0 && r.Latency() > limit) {
			st.misses++
		}
		if ok {
			st.timedOK++
			st.lat = append(st.lat, ms(r.Latency()))
			st.timedService += ms(r.Service())
			st.timedBytes += float64(r.Size)
		}
	}
	if st.timedOK > 0 {
		st.timedService /= float64(st.timedOK)
		st.timedBytes /= float64(st.timedOK)
	}
	st.latSeq = append([]float64(nil), st.lat...)
	sort.Float64s(st.lat)
	sort.Float64s(st.connWait)
	sort.Float64s(st.late)
	return st
}

// pct is percentile for the report lines: NaN where the sample is too
// small.
func pct(sorted []float64, q float64) float64 {
	v, err := percentile(sorted, q)
	if err != nil {
		return math.NaN()
	}
	return v
}

func (st phaseStats) String() string {
	s := fmt.Sprintf("phase %-14s sent=%d succeeded=%d failed=%d timed=%d", st.name, st.sent, st.ok, st.failed, st.timed)
	if q := tailQuantile(len(st.lat)); q > 0 {
		s += fmt.Sprintf(" p50=%.3fms p%g=%.3fms backlog_max=%d", pct(st.lat, 0.5), 100*q, pct(st.lat, q), st.maxBacklog)
	}
	return s
}
