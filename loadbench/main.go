// Command loadbench is the serving benchmark of record: an open-loop load
// driver for the real erserve binary. It boots erserve as one node or as
// three backends behind erserve -route, sends each workload's requests —
// every body and arrival time derived from -seed — at a fixed rate over at
// most nproc connections, times each request from its scheduled send,
// checks every response against the library, and prints the end-to-end
// metrics. With -trace 1 it instead measures the same workload's cost
// layer by layer from outside: Prometheus scrape deltas, /proc, and an
// in-process replay of the recorded requests through each layer's public
// functions.
//
// Usage (from the repository root, which run.sh builds from):
//
//	bash loadbench/run.sh --limit-ms match-hot=40,match-cold=80 \
//	    --workload match-hot --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and the metrics. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/ccer-go/ccer/internal/core"
)

func main() {
	correct, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadbench:", err)
		os.Exit(1)
	}
	if !correct {
		os.Exit(1)
	}
}

// nominalShare of the measured seconds runs at the nominal rate; the rest
// searches max_rps.
const nominalShare = 0.7

// bench is one invocation: one workload at one seed.
type bench struct {
	w       *workload
	p       *plan
	seed    int64
	seconds float64
	traced  bool
	bin     string
	work    string // scratch: data directories, replay state
	traces  string // where span files are written
	limit   time.Duration
	out     io.Writer
	client  *http.Client // set-up checks, scrapes and read-back
	refs    *refs
}

func run(args []string, stdout io.Writer) (bool, error) {
	fs := flag.NewFlagSet("loadbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: match-hot, match-cold, generate or routed")
	seed := fs.Int64("seed", 1, "seed of the request sequence")
	seconds := fs.Int("seconds", 20, "measured seconds: 70% at the nominal rate, the rest searching max_rps")
	trace := fs.Int("trace", 0, "1 runs the traced run, printing the per-layer metrics")
	bin := fs.String("erserve", "", "erserve binary to benchmark")
	out := fs.String("out", ".bench_build", "directory for scratch data and span files")
	limits := fs.String("limit-ms", "", "latency limit per workload for max_rps, e.g. match-hot=40,routed=60")
	if err := fs.Parse(args); err != nil {
		return false, err
	}
	w, err := workloadByName(*name)
	if err != nil {
		return false, err
	}
	limit, err := parseLimit(*limits, w.name)
	if err != nil {
		return false, err
	}
	switch {
	case *bin == "":
		return false, fmt.Errorf("-erserve is required")
	case *seconds < 1:
		return false, fmt.Errorf("-seconds %d below 1", *seconds)
	case *trace != 0 && *trace != 1:
		return false, fmt.Errorf("-trace %d is neither 0 nor 1", *trace)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	work := filepath.Join(*out, "work", fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	defer os.RemoveAll(work)
	b := &bench{w: w, seed: *seed, seconds: float64(*seconds), traced: *trace == 1, bin: *bin,
		work: work, traces: filepath.Join(*out, "traces"), limit: limit, out: stdout,
		client: &http.Client{Timeout: time.Minute}, refs: newRefs()}
	return b.run(ctx)
}

// parseLimit picks the workload's entry from "name=ms,name=ms".
func parseLimit(spec, workload string) (time.Duration, error) {
	for _, kv := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if ok && k == workload {
			ms, err := strconv.ParseFloat(v, 64)
			if err != nil || ms <= 0 {
				return 0, fmt.Errorf("bad latency limit %q", kv)
			}
			return time.Duration(ms * float64(time.Millisecond)), nil
		}
	}
	return 0, fmt.Errorf("-limit-ms names no limit for %s", workload)
}

func (b *bench) printf(format string, args ...any) { fmt.Fprintf(b.out, format+"\n", args...) }

func (b *bench) printHost() {
	model := "unknown"
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(info), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	b.printf("host nproc=%d cpu=%q kernel=%s go=%s gomaxprocs=%d", runtime.NumCPU(), model,
		strings.TrimSpace(string(kernel)), runtime.Version(), runtime.GOMAXPROCS(0))
	b.printf("run workload=%s seed=%d seconds=%g trace=%t rate=%g/s limit=%v",
		b.w.name, b.seed, b.seconds, b.traced, b.w.rate, b.limit)
}

// setUp boots the servers and runs the set-up requests, returning the
// verifier that saw them and the set-up batches.
func (b *bench) setUp(ctx context.Context, k int) (*topology, *verifier, []*batch, error) {
	top, err := startTopology(ctx, b.bin, b.w, filepath.Join(b.work, fmt.Sprintf("data%d", k)))
	if err != nil {
		return nil, nil, nil, err
	}
	v := newVerifier(runtime.NumCPU(), b.refs)
	stages, err := b.p.setupStages(top.backends())
	if err != nil {
		_ = top.stop()
		return nil, nil, nil, err
	}
	var batches []*batch
	for s, ops := range stages {
		// routed stores its graphs on their replicas directly and starts
		// the router after: a repair scan landing while one replica is
		// still generating would sync the other's copy to it, and its own
		// commit would then take version 2.
		if s == 1 && b.w.nodes > 1 {
			if err := top.startRouter(ctx, b.bin); err != nil {
				_ = top.stop()
				return nil, nil, nil, err
			}
		}
		loader := newLoader(top.base(), runtime.NumCPU(), v.keep)
		res, _ := loader.run(ctx, ops, nil)
		loader.close()
		bt := &batch{name: fmt.Sprintf("setup%d.%d", k, s), ops: ops, res: res}
		for i := range res {
			if !res[i].OK() {
				_ = top.stop()
				return nil, nil, nil, fmt.Errorf("set-up %s %s: status %d: %v", ops[i].Method, ops[i].Path, res[i].Status, res[i].Err)
			}
		}
		batches = append(batches, bt)
	}
	return top, v, batches, nil
}

func (b *bench) run(ctx context.Context) (bool, error) {
	b.printHost()
	p, err := newPlan(b.w, b.seed)
	if err != nil {
		return false, err
	}
	b.p = p
	setups := 3
	if b.traced {
		setups = 1
	}
	var top *topology
	defer func() {
		if top != nil {
			_ = top.stop()
		}
	}()
	var v *verifier
	var batches []*batch
	var setupS []float64
	for k := 0; k < setups; k++ {
		if top != nil {
			if err := top.stop(); err != nil {
				return false, err
			}
			top = nil
		}
		start := time.Now()
		top, v, batches, err = b.setUp(ctx, k)
		if err != nil {
			return false, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
		for _, bt := range batches {
			b.printf("%v", summarize(bt.name, bt.ops, bt.res, nil, 0, 0))
		}
	}
	sort.Float64s(setupS)
	b.printf("setup_s runs %v", setupS)

	loader := newLoader(top.base(), runtime.NumCPU(), v.keep)
	defer loader.close()
	if b.traced {
		return b.tracedRun(ctx, top, v, loader, batches)
	}
	n := int(math.Round(b.w.rate * nominalShare * b.seconds))
	cursor := p.first
	ops, err := p.phase(cursor, n, b.w.rate)
	if err != nil {
		return false, err
	}
	cursor += n
	if err := top.collectGarbage(b.client); err != nil {
		return false, err
	}
	cpu0, err := top.cpu()
	if err != nil {
		return false, err
	}
	res, backlog := loader.run(ctx, ops, nil)
	p.noteLost(ops, res)
	cpu1, err := top.cpu()
	if err != nil {
		return false, err
	}
	nominal := &batch{name: "nominal", ops: ops, res: res}
	pre := summarize("nominal", ops, res, nil, b.limit, backlog)
	maxRPS, steps, err := b.ladder(ctx, top, loader, &cursor, b.meetsLimit(pre, len(ops)))
	if err != nil {
		return false, err
	}
	rss, err := top.peakRSS()
	if err != nil {
		return false, err
	}
	batches = append(append(batches, nominal), steps...)
	if err := v.verify(b.client, top.base(), batches, nil); err != nil {
		return false, err
	}
	if err := top.stop(); err != nil {
		return false, err
	}
	top = nil
	for _, bt := range steps {
		b.printf("%v", summarize(bt.name, bt.ops, bt.res, bt.bad, b.limit, 0))
	}
	st := summarize("nominal", ops, res, nominal.bad, b.limit, backlog)
	b.printf("%v", st)
	p50, err1 := windowed(st.latSeq, 0.5)
	p90, err2 := windowed(st.latSeq, 0.9)
	p99, err3 := windowed(st.latSeq, 0.99)
	for _, err := range []error{err1, err2, err3} {
		if err != nil {
			return false, fmt.Errorf("nominal phase: %v (raise -seconds)", err)
		}
	}
	var cpu time.Duration
	for role := range cpu1 {
		cpu += cpu1[role] - cpu0[role]
	}
	m := map[string]float64{
		"setup_s":       setupS[len(setupS)/2],
		"p50_ms":        p50,
		"cpu_ms_per_op": ratio(float64(cpu)/1e6, float64(st.ok)),
		"rss_mb":        float64(rss) / (1 << 20),
	}
	b.printf("max_rps %v req/s", maxRPS)
	b.printf("p90_ms %v ms", p90)
	b.printf("p99_ms %v ms", p99)
	b.printf("failed_share %g ratio (%d of %d)", ratio(float64(st.failed), float64(st.sent)), st.failed, st.sent)
	return b.report(v, st.sent, st.failed, endToEnd, m)
}

// meetsLimit decides whether a phase of n ops met the workload's latency
// limit: every op was sent and succeeded, and the p90 of the timed ops is
// within the limit. Latency counts from the scheduled send, so a backlog
// that piles up shows in it. A step's sample supports p90, not p99, and
// one garbage-collection pause must not decide the knee.
func (b *bench) meetsLimit(st phaseStats, n int) bool {
	return st.sent == n && st.failed == 0 && st.misses*10 <= st.timed
}

// ladder searches max_rps, one short step per probe, each judged by
// meetsLimit. From the nominal rate it raises the rate by a factor of
// raise per step until a step fails, then bisects in log-rate between the
// highest passing and the lowest failing rate; no ceiling bounds it. A
// failing rate is stepped once more before it counts as failed, so that
// one stall of the host cannot end the search low. A step whose backlog
// grows to four times the limit's worth is stopped early: it has failed.
func (b *bench) ladder(ctx context.Context, top *topology, loader *Loader, cursor *int, nominalPass bool) (float64, []*batch, error) {
	const stepSecs, raise = 1.0, 1.5
	var lo, hi float64 // highest passing and lowest failing rate; 0 for none yet
	if nominalPass {
		lo = b.w.rate
	} else {
		hi = b.w.rate
	}
	var out []*batch
	retried := false
	for s := 0; s < int((1-nominalShare)*b.seconds/stepSecs); s++ {
		rate := math.Sqrt(lo * hi)
		switch {
		case hi == 0:
			rate = lo * raise
		case lo == 0:
			rate = hi / raise
		}
		n := max(1, int(math.Round(rate*stepSecs)))
		ops, err := b.p.phase(*cursor, n, rate)
		if err != nil {
			return 0, nil, err
		}
		*cursor += n
		if err := top.collectGarbage(b.client); err != nil {
			return 0, nil, err
		}
		abortAt := max(32, int(4*rate*b.limit.Seconds()))
		res, backlog := loader.run(ctx, ops, func(bl int) bool { return bl > abortAt })
		b.p.noteLost(ops, res)
		name := fmt.Sprintf("ladder%d", s)
		st := summarize(name, ops, res, nil, b.limit, backlog)
		pass := b.meetsLimit(st, len(ops))
		b.printf("ladder step %d rate=%.2f/s sent=%d misses=%d failed=%d backlog_max=%d pass=%t",
			s, rate, st.sent, st.misses, st.failed, backlog, pass)
		switch {
		case pass:
			lo, retried = rate, false
		case !retried:
			retried = true
		default:
			hi, retried = rate, false
		}
		out = append(out, &batch{name: name, ops: ops, res: res})
		if err := ctx.Err(); err != nil {
			return 0, nil, err
		}
	}
	return lo, out, nil
}

// tracedRun runs the nominal phase in two halves, the first untraced and
// the second with scrapes around it and the admission queue sampled,
// then replays the traced half's requests in-process layer by layer.
func (b *bench) tracedRun(ctx context.Context, top *topology, v *verifier, loader *Loader, batches []*batch) (bool, error) {
	p := b.p
	half := int(math.Round(b.w.rate * nominalShare * b.seconds / 2))
	opsA, err := p.phase(p.first, half, b.w.rate)
	if err != nil {
		return false, err
	}
	if err := top.collectGarbage(b.client); err != nil {
		return false, err
	}
	resA, backlogA := loader.run(ctx, opsA, nil)
	p.noteLost(opsA, resA)
	opsB, err := p.phase(p.first+half, half, b.w.rate)
	if err != nil {
		return false, err
	}
	if err := top.collectGarbage(b.client); err != nil {
		return false, err
	}
	before, err := b.scrapeAll(top)
	if err != nil {
		return false, err
	}
	cpu0, err := top.cpu()
	if err != nil {
		return false, err
	}
	wrote0, err := top.storageWrites()
	if err != nil {
		return false, err
	}
	sampler := startSampler(top.nodes)
	resB, backlogB := loader.run(ctx, opsB, nil)
	sampler.stop()
	cpu1, err := top.cpu()
	if err != nil {
		return false, err
	}
	wrote1, err := top.storageWrites()
	if err != nil {
		return false, err
	}
	after, err := b.scrapeAll(top)
	if err != nil {
		return false, err
	}
	tr := &tracer{t0: time.Now()}
	a := &batch{name: "untraced", ops: opsA, res: resA}
	bt := &batch{name: "traced", ops: opsB, res: resB}
	stages := batches
	if err := v.verify(b.client, top.base(), append(append(batches, a), bt), tr); err != nil {
		return false, err
	}
	backends := top.backends()
	if err := top.stop(); err != nil {
		return false, err
	}

	t := &traced{
		untraced:      summarize("untraced", opsA, resA, a.bad, b.limit, backlogA),
		phase:         summarize("traced", opsB, resB, bt.bad, b.limit, backlogB),
		both:          summarize("both", append(append([]Op(nil), opsA...), opsB...), append(append([]Result(nil), resA...), resB...), nil, 0, 0),
		queueDepthMax: sampler.max,
		scrapeSecs:    (before.nodeTime + sampler.took).Seconds() / float64(len(top.nodes)+sampler.n),
		storageWrites: wrote1 - wrote0,
		cpu:           map[string]time.Duration{},
	}
	for role := range cpu1 {
		t.cpu[role] = cpu1[role] - cpu0[role]
	}
	t.node = sum()
	for i := range before.nodes {
		t.node = sum(t.node, delta(before.nodes[i], after.nodes[i]))
	}
	if before.router != nil {
		t.router = delta(before.router, after.router)
	}
	for i := range opsB {
		if !resB[i].OK() || bt.bad[i] {
			continue
		}
		switch c := opsB[i].Check.(type) {
		case *matchCheck:
			t.edges += float64(v.graphs[c.req.Graph].edges)
		case *genCheck:
			for _, name := range c.names {
				t.edges += float64(v.expect[name].edges)
			}
			t.committed += len(c.names)
		}
	}
	b.printf("%v", t.untraced)
	b.printf("%v", t.phase)

	if err := b.replay(tr, stages, v, opsB, resB, backends); err != nil {
		return false, err
	}
	t.spans = tr.stats()
	t.handlerChildren = tr.under("serve.Server.Handler")
	path := filepath.Join(b.traces, fmt.Sprintf("%s-seed%d.jsonl", b.w.name, b.seed))
	if err := tr.write(path); err != nil {
		return false, err
	}
	b.printf("spans %d written to %s", len(tr.spans), path)

	m := t.layerMetrics(b.w)
	b.sizing(t, m)
	return b.report(v, t.untraced.sent+t.phase.sent, t.untraced.failed+t.phase.failed, perLayer, m)
}

// replay re-runs an evenly spaced sample of the traced half's timed
// requests in-process.
func (b *bench) replay(tr *tracer, stages []*batch, v *verifier, ops []Op, res []Result, backends []string) error {
	r, err := newReplayer(b.w, filepath.Join(b.work, "replay"), tr, b.refs, backends)
	if err != nil {
		return err
	}
	defer r.close()
	var setup [][]Op
	for _, bt := range stages {
		setup = append(setup, bt.ops)
	}
	if err := r.prepare(setup, v.graphs); err != nil {
		return err
	}
	// The driver's heap holds the references and the retained replies; a
	// collection of it must not land in some replays and not others.
	runtime.GC()
	var timed []int
	for i := range ops {
		if ops[i].Timed && res[i].OK() {
			timed = append(timed, i)
		}
	}
	// Every stride-th timed request, plus the first family-mode
	// generations, which a stride could step over, plus every untimed
	// write (routed's fanned generations).
	const families = 12
	stride := max(1, len(timed)/b.w.replay)
	fam, k := 0, 0
	for i := range ops {
		gc, isGen := ops[i].Check.(*genCheck)
		isFam := isGen && gc.req.Family != ""
		pick := ops[i].Timed && (k%stride == 0 || isFam && fam < families) || !ops[i].Timed && isGen
		if ops[i].Timed {
			k++
		}
		if !pick || !res[i].OK() {
			continue
		}
		if isFam {
			fam++
		}
		if err := r.replay(i, &ops[i]); err != nil {
			return err
		}
	}
	return nil
}

// servers' scrapes at one instant.
type scrapes struct {
	nodes    []series
	router   series
	nodeTime time.Duration // the node scrapes' HTTP exchanges, summed
}

func (b *bench) scrapeAll(top *topology) (scrapes, error) {
	var s scrapes
	for _, n := range top.nodes {
		sc, took, err := scrape(b.client, n.base)
		if err != nil {
			return s, err
		}
		s.nodes = append(s.nodes, sc)
		s.nodeTime += took
	}
	if top.router != nil {
		sc, _, err := scrape(b.client, top.router.base)
		if err != nil {
			return s, err
		}
		s.router = sc
	}
	return s, nil
}

// sampler polls the nodes' admission queue gauge during the traced phase,
// and times its scrapes, which the nodes' request histogram counts too.
type sampler struct {
	done chan struct{}
	wg   sync.WaitGroup
	max  float64
	n    int           // scrapes answered
	took time.Duration // their HTTP exchanges, summed
}

func startSampler(nodes []*server) *sampler {
	s := &sampler{done: make(chan struct{})}
	c := &http.Client{Timeout: 5 * time.Second}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.done:
				return
			case <-tick.C:
				for _, n := range nodes {
					sc, took, err := scrape(c, n.base)
					if err == nil {
						s.max = max(s.max, sc.total("ccer_admission_queue_depth"))
						s.n++
						s.took += took
					}
				}
			}
		}
	}()
	return s
}

func (s *sampler) stop() {
	close(s.done)
	s.wg.Wait()
}

// sizing prints the traced run's checks that each workload exercises the
// layer it exists for, and the two numbers ROADMAP asks for.
func (b *bench) sizing(t *traced, m map[string]float64) {
	check := func(what string, ok bool) {
		verdict := "ok"
		if !ok {
			verdict = "NOT MET"
		}
		b.printf("sizing %s: %s", what, verdict)
	}
	top, topName := t.shares(b.out, m["core.share"])
	switch b.w.name {
	case "match-hot":
		check(fmt.Sprintf("serve.cache_hit_ratio %.4f >= 0.99", m["serve.cache_hit_ratio"]), m["serve.cache_hit_ratio"] >= 0.99)
		check(fmt.Sprintf("core.share %.4f < 0.05", m["core.share"]), m["core.share"] < 0.05)
		b.printf("roadmap serve.fixed_share %.4f (serve.self_ms %.4f + http.transport_ms %.4f over p50_ms %.4f): the batch-endpoint input",
			m["serve.fixed_share"], m["serve.self_ms"], m["http.transport_ms"], pct(t.untraced.lat, 0.5))
	case "match-cold":
		check(fmt.Sprintf("serve.cache_hit_ratio %.4f <= 0.01", m["serve.cache_hit_ratio"]), m["serve.cache_hit_ratio"] <= 0.01)
		check(fmt.Sprintf("core.share %.4f is the largest layer share (next: %s %.4f)", m["core.share"], topName, top), m["core.share"] > top)
		b.printf("roadmap QT(1) per algorithm as served, ms per matcher call (ccer_match_seconds mean, %d cores):", runtime.NumCPU())
		for _, a := range core.Names() {
			b.printf("roadmap   %s %.4f", a, m["core.match_ms."+a])
		}
	case "generate":
		check(fmt.Sprintf("core.share %g == 0", m["core.share"]), m["core.share"] == 0)
	case "routed":
		check(fmt.Sprintf("cluster.fan_misses %g == 0", m["cluster.fan_misses"]), m["cluster.fan_misses"] == 0)
	}
	if lp := m["loadgen.lateness_p99_ms"]; lp > 5 {
		b.printf("WARNING loadgen.lateness_p99_ms %.3f: the driver ran late; this run is void", lp)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report prints every metric by name with its unit, then the result
// line, and reports whether every output was correct.
func (b *bench) report(v *verifier, attempted, failed int, defs []metricDef, m map[string]float64) (bool, error) {
	res := result{Correct: v.mis.Load() == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, p := range v.problem {
		b.printf("mismatch %s", p)
	}
	b.printf("outputs checked: %d wrong", v.mis.Load())
	for _, d := range defs {
		val := m[d.name]
		if math.IsNaN(val) || math.IsInf(val, 0) {
			return false, fmt.Errorf("metric %s is %v", d.name, val)
		}
		b.printf("metric %s %v %s", d.name, val, d.unit)
		res.Metrics[d.name] = metricValue{Value: val, Unit: d.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return false, err
	}
	b.printf("%s", line)
	return res.Correct, nil
}
