package durable

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ccer-go/ccer/internal/dataset"
	"github.com/ccer-go/ccer/internal/graph"
	"github.com/ccer-go/ccer/internal/obs"
	"github.com/ccer-go/ccer/internal/repcache"
)

// Config tunes a Log. Only Dir is required.
type Config struct {
	// Dir is the data directory; it is created when absent.
	Dir string
	// FS is the filesystem implementation; nil means OSFS (the
	// crash-injection harness substitutes its own).
	FS FS
	// CompactEvery is the period of the background snapshot/compaction
	// goroutine. 0 means 60s; negative disables background compaction
	// (Compact can still be called explicitly).
	CompactEvery time.Duration
	// Obs receives journal fsync and snapshot-write latency histograms;
	// nil disables them (counters in Metrics are always maintained).
	Obs *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.FS == nil {
		c.FS = OSFS{}
	}
	if c.CompactEvery == 0 {
		c.CompactEvery = time.Minute
	}
	return c
}

// compactRecords nudges the compactor once this many journal records
// accumulated since the last manifest, independent of its timer.
const compactRecords = 4096

// ErrLogFailed wraps the first journal append/fsync error; every later
// mutation fails with it. After a failed append the tail of the active
// segment may hold a half-written frame, and replay stops at the first
// invalid frame — so appending further records would silently lose them
// on recovery. Failing every subsequent commit keeps the acknowledged
// and recoverable states identical; the operator restarts the process,
// which rolls to a fresh segment.
var ErrLogFailed = errors.New("durable: journal failed; restart to roll a new segment")

// RecoveredGraph is one committed graph restored at boot, its content
// re-read through the edge-list codec and verified against the checksum
// stored in its record.
type RecoveredGraph struct {
	Record GraphRecord
	Graph  *graph.Bipartite
	GT     *dataset.GroundTruth // nil when the record has none
}

// Recovered is the committed state replayed at Open.
type Recovered struct {
	// Graphs holds every live graph, sorted by ascending version.
	Graphs []RecoveredGraph
	// NextVersion is the highest version ever committed (including
	// deleted and overwritten entries); the store resumes from it so
	// versions stay monotonic across restarts.
	NextVersion int64
	// JournalRecords counts the records replayed over the manifest.
	JournalRecords int64
	// TornSegments counts segments whose tail was discarded as torn.
	TornSegments int
}

// Metrics is the counter set surfaced on /metrics.
type Metrics struct {
	// JournalRecordsTotal counts records replayed at boot plus records
	// appended since.
	JournalRecordsTotal int64
	// RecoveryNS is the wall time of the boot-time recovery.
	RecoveryNS int64
	// SnapshotBytes is the on-disk size of the content files and
	// manifest referenced by the committed state, refreshed at open and
	// after each compaction.
	SnapshotBytes int64
	// CompactionsTotal counts manifest rewrites.
	CompactionsTotal int64
}

// Log is the durable store: an fsync'd journal of mutations over
// content-addressed snapshot files. All mutations serialize on one
// mutex; the fsync per commit dominates anyway. A Log tracks the
// committed state (records, not graph content) so compaction can write
// a manifest without asking the in-memory store.
type Log struct {
	cfg Config
	fs  FS
	dir string

	mu          sync.Mutex
	err         error // sticky journal failure (ErrLogFailed cause)
	closed      bool
	live        map[string]GraphRecord
	nextVersion int64
	seg         File  // active journal segment
	segSeq      int64 // its sequence number
	manifestSeq int64 // last written manifest sequence
	since       int64 // records since the last manifest

	journalRecords atomic.Int64
	recoveryNS     atomic.Int64
	snapshotBytes  atomic.Int64
	compactions    atomic.Int64

	// fsyncHist and snapshotHist are nil-safe histograms (nil when
	// Config.Obs is nil); observing on them is then a no-op.
	fsyncHist    *obs.Histogram
	snapshotHist *obs.Histogram

	compactCh chan struct{}
	done      chan struct{}
	wg        sync.WaitGroup
}

func (l *Log) walDir() string    { return filepath.Join(l.dir, "wal") }
func (l *Log) graphsDir() string { return filepath.Join(l.dir, "graphs") }
func (l *Log) gtsDir() string    { return filepath.Join(l.dir, "gts") }

func graphFileName(checksum uint64) string { return fmt.Sprintf("%016x.edges", checksum) }
func gtFileName(k repcache.Key) string     { return fmt.Sprintf("%016x%016x.json", k.Hi, k.Lo) }
func segFileName(seq int64) string         { return fmt.Sprintf("wal-%010d.log", seq) }
func manifestFileName(seq int64) string    { return fmt.Sprintf("MANIFEST-%010d", seq) }

// manifestJSON is the on-disk snapshot of the committed state. Scale
// round-trips exactly: encoding/json emits the shortest representation
// that parses back to the same float64. The "reps" list that older
// versions wrote is an unknown field here, and ignored.
type manifestJSON struct {
	Seq         int64           `json:"seq"`
	NextVersion int64           `json:"next_version"`
	WalFloor    int64           `json:"wal_floor"`
	Graphs      []manifestGraph `json:"graphs"`
}

type manifestGraph struct {
	Name      string  `json:"name"`
	Version   int64   `json:"version"`
	Checksum  string  `json:"checksum"` // 16 hex digits: JSON numbers lose uint64 precision
	Source    string  `json:"source"`
	Dataset   string  `json:"dataset,omitempty"`
	Seed      int64   `json:"seed,omitempty"`
	Scale     float64 `json:"scale,omitempty"`
	CreatedNS int64   `json:"created_ns"`
	GT        string  `json:"gt,omitempty"` // 32 hex digits
}

func parseHexKey(s string) (repcache.Key, error) {
	var k repcache.Key
	if len(s) != 32 {
		return k, fmt.Errorf("durable: bad content key %q", s)
	}
	if _, err := fmt.Sscanf(s[:16], "%016x", &k.Hi); err != nil {
		return k, err
	}
	if _, err := fmt.Sscanf(s[16:], "%016x", &k.Lo); err != nil {
		return k, err
	}
	return k, nil
}

// Open mounts (creating when absent) the data directory, replays the
// journal over the latest manifest, verifies every live graph snapshot
// against its record checksum, and begins a fresh journal segment. The
// returned Recovered carries the committed state for the store to
// preload; mutations on the Log are accepted immediately.
func Open(cfg Config) (*Log, *Recovered, error) {
	start := time.Now()
	cfg = cfg.withDefaults()
	l := &Log{
		cfg:       cfg,
		fs:        cfg.FS,
		dir:       cfg.Dir,
		live:      map[string]GraphRecord{},
		compactCh: make(chan struct{}, 1),
		done:      make(chan struct{}),
	}
	l.fsyncHist = cfg.Obs.Histogram("ccer_journal_fsync_seconds",
		"Latency of one journal record append+fsync.")
	l.snapshotHist = cfg.Obs.Histogram("ccer_snapshot_write_seconds",
		"Latency of one durable content-file write (tmp, fsync, rename, dir sync).")
	for _, d := range []string{l.dir, l.walDir(), l.graphsDir(), l.gtsDir()} {
		if err := l.fs.MkdirAll(d); err != nil {
			return nil, nil, fmt.Errorf("durable: mkdir %s: %w", d, err)
		}
	}
	l.removeStrayTmp()

	rec := &Recovered{}
	manifest, err := l.readCurrentManifest()
	if err != nil {
		return nil, nil, err
	}
	var walFloor int64
	if manifest != nil {
		l.manifestSeq = manifest.Seq
		l.nextVersion = manifest.NextVersion
		walFloor = manifest.WalFloor
		for _, mg := range manifest.Graphs {
			gr := GraphRecord{
				Name:    mg.Name,
				Version: mg.Version,
				Source:  mg.Source,
				Dataset: mg.Dataset,
				Seed:    mg.Seed,
				Scale:   mg.Scale,
				Created: time.Unix(0, mg.CreatedNS),
			}
			if _, err := fmt.Sscanf(mg.Checksum, "%016x", &gr.Checksum); err != nil {
				return nil, nil, fmt.Errorf("durable: manifest graph %q: bad checksum %q", mg.Name, mg.Checksum)
			}
			if mg.GT != "" {
				gr.GTRef, err = parseHexKey(mg.GT)
				if err != nil {
					return nil, nil, fmt.Errorf("durable: manifest graph %q: %w", mg.Name, err)
				}
				gr.HasGT = true
			}
			l.live[gr.Name] = gr
		}
	}

	// Replay journal segments at or above the manifest's floor, in
	// sequence order, stopping inside each segment at the first invalid
	// frame (the torn tail a crash leaves behind).
	segs, maxSeq, err := l.listSegments()
	if err != nil {
		return nil, nil, err
	}
	for _, seq := range segs {
		if seq < walFloor {
			continue
		}
		data, err := l.readFile(filepath.Join(l.walDir(), segFileName(seq)))
		if err != nil {
			return nil, nil, fmt.Errorf("durable: read journal segment %d: %w", seq, err)
		}
		recs, torn := replayRecords(data)
		if torn {
			rec.TornSegments++
		}
		for _, r := range recs {
			l.applyLocked(r)
		}
		rec.JournalRecords += int64(len(recs))
	}

	// Load and verify every live graph, plus the ground truths they
	// reference.
	gts := map[repcache.Key]*dataset.GroundTruth{}
	for _, gr := range l.sortedLive() {
		g, err := l.loadGraph(gr)
		if err != nil {
			return nil, nil, err
		}
		rg := RecoveredGraph{Record: gr, Graph: g}
		if gr.HasGT {
			gt, ok := gts[gr.GTRef]
			if !ok {
				gt, err = l.loadGT(gr.GTRef)
				if err != nil {
					return nil, nil, fmt.Errorf("durable: graph %q: %w", gr.Name, err)
				}
				gts[gr.GTRef] = gt
			}
			rg.GT = gt
		}
		rec.Graphs = append(rec.Graphs, rg)
	}
	rec.NextVersion = l.nextVersion

	// Begin a fresh segment strictly after everything on disk, so a
	// torn tail in an old segment is never appended to.
	l.segSeq = maxSeq + 1
	if l.segSeq <= walFloor {
		l.segSeq = walFloor + 1
	}
	seg, err := l.fs.Append(filepath.Join(l.walDir(), segFileName(l.segSeq)))
	if err != nil {
		return nil, nil, fmt.Errorf("durable: open journal segment: %w", err)
	}
	if err := l.fs.SyncDir(l.walDir()); err != nil {
		seg.Close()
		return nil, nil, err
	}
	l.seg = seg
	l.since = rec.JournalRecords // replayed records compact away at the next manifest
	l.journalRecords.Store(rec.JournalRecords)
	l.refreshSnapshotBytes()
	l.recoveryNS.Store(time.Since(start).Nanoseconds())

	if cfg.CompactEvery > 0 {
		l.wg.Add(1)
		go l.compactor()
	}
	return l, rec, nil
}

// applyLocked folds one journal record into the committed-state view.
// A recLegacyRep record changes nothing.
func (l *Log) applyLocked(r record) {
	switch r.kind {
	case recPut:
		l.live[r.graph.Name] = r.graph
		if r.graph.Version > l.nextVersion {
			l.nextVersion = r.graph.Version
		}
	case recDelete:
		delete(l.live, r.name)
	}
}

func (l *Log) sortedLive() []GraphRecord {
	out := make([]GraphRecord, 0, len(l.live))
	for _, gr := range l.live {
		out = append(out, gr)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Version < out[j].Version })
	return out
}

// PutGraph commits one graph under rec.Name: its snapshot (and ground
// truth, when present) are made durable first, then the journal record
// is appended and fsync'd. Only after PutGraph returns nil may the
// caller make the entry visible.
func (l *Log) PutGraph(rec GraphRecord, g *graph.Bipartite, gt *dataset.GroundTruth) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usableLocked(); err != nil {
		return err
	}
	if err := l.ensureGraphFile(rec.Checksum, g); err != nil {
		return err
	}
	rec.HasGT = false
	rec.GTRef = repcache.Key{}
	if gt != nil && len(gt.Pairs) > 0 {
		key := gtKey(gt)
		if err := l.ensureGTFile(key, gt); err != nil {
			return err
		}
		rec.GTRef, rec.HasGT = key, true
	}
	if err := l.appendLocked(record{kind: recPut, graph: rec}); err != nil {
		return err
	}
	l.applyLocked(record{kind: recPut, graph: rec})
	return nil
}

// DeleteGraph commits the removal of name. Deleting an absent name is a
// durable no-op.
func (l *Log) DeleteGraph(name string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usableLocked(); err != nil {
		return err
	}
	if _, ok := l.live[name]; !ok {
		return nil
	}
	if err := l.appendLocked(record{kind: recDelete, name: name}); err != nil {
		return err
	}
	l.applyLocked(record{kind: recDelete, name: name})
	return nil
}

func (l *Log) usableLocked() error {
	if l.closed {
		return errors.New("durable: log closed")
	}
	if l.err != nil {
		return fmt.Errorf("%w: %w", ErrLogFailed, l.err)
	}
	return nil
}

// appendLocked frames, writes and fsyncs one record. Any error is
// sticky: the segment tail may hold a partial frame, and records
// appended after it would be unreachable to replay.
func (l *Log) appendLocked(r record) error {
	start := time.Now()
	if err := appendFrame(l.seg, encodeRecord(r)); err != nil {
		l.err = err
		return fmt.Errorf("%w: %w", ErrLogFailed, err)
	}
	if err := l.seg.Sync(); err != nil {
		l.err = err
		return fmt.Errorf("%w: %w", ErrLogFailed, err)
	}
	l.fsyncHist.Since(start)
	l.journalRecords.Add(1)
	l.since++
	if l.since >= compactRecords {
		select {
		case l.compactCh <- struct{}{}:
		default:
		}
	}
	return nil
}

// writeContentFile writes a content-addressed file durably: temp file,
// fsync, rename into place, fsync the directory. Existing files are
// left alone (same name means same content).
func (l *Log) writeContentFile(dir, name string, write func(io.Writer) error) error {
	if _, err := l.fs.Stat(filepath.Join(dir, name)); err == nil {
		return nil
	}
	return l.writeFileAtomic(dir, name, write)
}

// writeFileAtomic writes a file durably (temp file, fsync, rename,
// fsync the directory), UNCONDITIONALLY replacing any existing file of
// that name. Manifests must go through here, never writeContentFile: a
// manifest's name is a sequence number, not a content address, so an
// existing MANIFEST-<seq> may be a stale leftover from a previous
// process life that crashed after renaming it into place but before
// flipping CURRENT. Treating that leftover as already-written and then
// pointing CURRENT at it would resurrect the dead life's state — and
// the GC that follows would delete the journal segments holding every
// record committed since, losing acknowledged writes.
func (l *Log) writeFileAtomic(dir, name string, write func(io.Writer) error) error {
	final := filepath.Join(dir, name)
	start := time.Now()
	tmp := filepath.Join(dir, "tmp-"+name)
	f, err := l.fs.Create(tmp)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := l.fs.Rename(tmp, final); err != nil {
		return err
	}
	if err := l.fs.SyncDir(dir); err != nil {
		return err
	}
	l.snapshotHist.Since(start)
	return nil
}

func (l *Log) ensureGraphFile(checksum uint64, g *graph.Bipartite) error {
	return l.writeContentFile(l.graphsDir(), graphFileName(checksum), g.WriteEdgeList)
}

// gtKey content-hashes a ground truth's pair set.
func gtKey(gt *dataset.GroundTruth) repcache.Key {
	h := repcache.NewHasher(0x617)
	h.Uint64(uint64(len(gt.Pairs)))
	for _, p := range gt.Pairs {
		h.Uint64(uint64(uint32(p[0]))<<32 | uint64(uint32(p[1])))
	}
	return h.Key()
}

func (l *Log) ensureGTFile(key repcache.Key, gt *dataset.GroundTruth) error {
	return l.writeContentFile(l.gtsDir(), gtFileName(key), func(w io.Writer) error {
		return json.NewEncoder(w).Encode(struct {
			Pairs [][2]int32 `json:"pairs"`
		}{Pairs: gt.Pairs})
	})
}

func (l *Log) readFile(path string) ([]byte, error) {
	f, err := l.fs.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return io.ReadAll(f)
}

func (l *Log) loadGraph(gr GraphRecord) (*graph.Bipartite, error) {
	path := filepath.Join(l.graphsDir(), graphFileName(gr.Checksum))
	f, err := l.fs.Open(path)
	if err != nil {
		return nil, fmt.Errorf("durable: graph %q (version %d): snapshot missing: %w", gr.Name, gr.Version, err)
	}
	g, err := graph.ReadEdgeList(f)
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("durable: graph %q (version %d): corrupt snapshot: %w", gr.Name, gr.Version, err)
	}
	if sum := g.Checksum(); sum != gr.Checksum {
		return nil, fmt.Errorf("durable: graph %q (version %d): snapshot checksum %016x, record says %016x",
			gr.Name, gr.Version, sum, gr.Checksum)
	}
	return g, nil
}

func (l *Log) loadGT(key repcache.Key) (*dataset.GroundTruth, error) {
	data, err := l.readFile(filepath.Join(l.gtsDir(), gtFileName(key)))
	if err != nil {
		return nil, fmt.Errorf("ground truth %s missing: %w", gtFileName(key), err)
	}
	var parsed struct {
		Pairs [][2]int32 `json:"pairs"`
	}
	if err := json.Unmarshal(data, &parsed); err != nil {
		return nil, fmt.Errorf("ground truth %s corrupt: %w", gtFileName(key), err)
	}
	gt := dataset.NewGroundTruth(parsed.Pairs)
	if got := gtKey(gt); got != key {
		return nil, fmt.Errorf("ground truth %s fails its content hash", gtFileName(key))
	}
	return gt, nil
}

func (l *Log) readCurrentManifest() (*manifestJSON, error) {
	data, err := l.readFile(filepath.Join(l.dir, "CURRENT"))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil // fresh directory
	}
	if err != nil {
		return nil, fmt.Errorf("durable: read CURRENT: %w", err)
	}
	name := strings.TrimSpace(string(data))
	if !strings.HasPrefix(name, "MANIFEST-") {
		return nil, fmt.Errorf("durable: CURRENT names %q, not a manifest", name)
	}
	raw, err := l.readFile(filepath.Join(l.dir, name))
	if err != nil {
		return nil, fmt.Errorf("durable: manifest %s: %w", name, err)
	}
	var m manifestJSON
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("durable: manifest %s corrupt: %w", name, err)
	}
	return &m, nil
}

func (l *Log) listSegments() (seqs []int64, max int64, err error) {
	names, err := l.fs.ReadDir(l.walDir())
	if err != nil {
		return nil, 0, err
	}
	for _, n := range names {
		var seq int64
		if _, err := fmt.Sscanf(n, "wal-%d.log", &seq); err == nil {
			seqs = append(seqs, seq)
			if seq > max {
				max = seq
			}
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, max, nil
}

// removeStrayTmp deletes half-written temp files a crash left behind.
func (l *Log) removeStrayTmp() {
	for _, d := range []string{l.dir, l.graphsDir(), l.gtsDir()} {
		names, err := l.fs.ReadDir(d)
		if err != nil {
			continue
		}
		for _, n := range names {
			if strings.HasPrefix(n, "tmp-") {
				_ = l.fs.Remove(filepath.Join(d, n))
			}
		}
	}
}

// Compact writes a fresh manifest of the committed state, rolls the
// journal to a new segment, and garbage-collects segments and content
// files the manifest no longer references. The store compacts on its
// own (the background compactor and Close); Compact is test support, so
// the tests of this package and of internal/durable/crashtest can
// compact at a chosen point of a workload.
func (l *Log) Compact() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usableLocked(); err != nil {
		return err
	}
	return l.compactLocked()
}

func (l *Log) compactLocked() error {
	// Roll the segment first: records committed after the state below
	// is snapshotted land in the new segment, which stays above the
	// manifest's floor (replaying a record already in the manifest is
	// idempotent, losing one is not). The mutex is held throughout, so
	// in fact nothing interleaves; the ordering keeps the invariant
	// obvious.
	if err := l.seg.Close(); err != nil {
		l.err = err
		return fmt.Errorf("%w: %w", ErrLogFailed, err)
	}
	l.segSeq++
	seg, err := l.fs.Append(filepath.Join(l.walDir(), segFileName(l.segSeq)))
	if err != nil {
		l.err = err
		return fmt.Errorf("%w: %w", ErrLogFailed, err)
	}
	if err := l.fs.SyncDir(l.walDir()); err != nil {
		seg.Close()
		l.err = err
		return fmt.Errorf("%w: %w", ErrLogFailed, err)
	}
	l.seg = seg

	m := manifestJSON{
		Seq:         l.manifestSeq + 1,
		NextVersion: l.nextVersion,
		WalFloor:    l.segSeq,
	}
	for _, gr := range l.sortedLive() {
		mg := manifestGraph{
			Name:      gr.Name,
			Version:   gr.Version,
			Checksum:  fmt.Sprintf("%016x", gr.Checksum),
			Source:    gr.Source,
			Dataset:   gr.Dataset,
			Seed:      gr.Seed,
			Scale:     gr.Scale,
			CreatedNS: gr.Created.UnixNano(),
		}
		if gr.HasGT {
			mg.GT = fmt.Sprintf("%016x%016x", gr.GTRef.Hi, gr.GTRef.Lo)
		}
		m.Graphs = append(m.Graphs, mg)
	}
	raw, err := json.MarshalIndent(&m, "", " ")
	if err != nil {
		return err
	}
	name := manifestFileName(m.Seq)
	writeRaw := func(w io.Writer) error { _, err := w.Write(raw); return err }
	if err := l.writeFileAtomic(l.dir, name, writeRaw); err != nil {
		// The old manifest and floor still describe a consistent state;
		// nothing was acknowledged against this one. Not sticky.
		return err
	}
	current := func(w io.Writer) error { _, err := io.WriteString(w, name+"\n"); return err }
	tmp := filepath.Join(l.dir, "tmp-CURRENT")
	f, err := l.fs.Create(tmp)
	if err != nil {
		return err
	}
	if err := current(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := l.fs.Rename(tmp, filepath.Join(l.dir, "CURRENT")); err != nil {
		return err
	}
	if err := l.fs.SyncDir(l.dir); err != nil {
		return err
	}
	l.manifestSeq = m.Seq
	l.since = 0
	l.compactions.Add(1)
	l.gcLocked()
	l.refreshSnapshotBytes()
	return nil
}

// gcLocked removes journal segments below the floor, superseded
// manifests, and content files no live record references. Errors are
// ignored: everything here is garbage already and retried next time.
func (l *Log) gcLocked() {
	segs, _, err := l.listSegments()
	if err == nil {
		for _, seq := range segs {
			if seq < l.segSeq {
				_ = l.fs.Remove(filepath.Join(l.walDir(), segFileName(seq)))
			}
		}
	}
	if names, err := l.fs.ReadDir(l.dir); err == nil {
		for _, n := range names {
			var seq int64
			if _, err := fmt.Sscanf(n, "MANIFEST-%d", &seq); err == nil && seq != l.manifestSeq {
				_ = l.fs.Remove(filepath.Join(l.dir, n))
			}
		}
	}
	keep := map[string]bool{}
	for _, gr := range l.live {
		keep[graphFileName(gr.Checksum)] = true
		if gr.HasGT {
			keep[gtFileName(gr.GTRef)] = true
		}
	}
	for _, d := range []string{l.graphsDir(), l.gtsDir()} {
		names, err := l.fs.ReadDir(d)
		if err != nil {
			continue
		}
		for _, n := range names {
			if !keep[n] {
				_ = l.fs.Remove(filepath.Join(d, n))
			}
		}
	}
}

// refreshSnapshotBytes sums the sizes of the content files the
// committed state references, plus the current manifest.
func (l *Log) refreshSnapshotBytes() {
	var total int64
	add := func(path string) {
		if n, err := l.fs.Stat(path); err == nil {
			total += n
		}
	}
	seenGT := map[repcache.Key]bool{}
	for _, gr := range l.live {
		add(filepath.Join(l.graphsDir(), graphFileName(gr.Checksum)))
		if gr.HasGT && !seenGT[gr.GTRef] {
			seenGT[gr.GTRef] = true
			add(filepath.Join(l.gtsDir(), gtFileName(gr.GTRef)))
		}
	}
	if l.manifestSeq > 0 {
		add(filepath.Join(l.dir, manifestFileName(l.manifestSeq)))
	}
	l.snapshotBytes.Store(total)
}

// compactor is the background snapshot goroutine: it compacts on a
// timer and when the record-count threshold nudges it.
func (l *Log) compactor() {
	defer l.wg.Done()
	ticker := time.NewTicker(l.cfg.CompactEvery)
	defer ticker.Stop()
	for {
		select {
		case <-l.done:
			return
		case <-ticker.C:
		case <-l.compactCh:
		}
		l.mu.Lock()
		if !l.closed && l.err == nil && l.since > 0 {
			_ = l.compactLocked() // kept state is still consistent on error
		}
		l.mu.Unlock()
	}
}

// Metrics returns the counter snapshot. A nil Log reports zeros so the
// serve layer needs no branches.
func (l *Log) Metrics() Metrics {
	if l == nil {
		return Metrics{}
	}
	return Metrics{
		JournalRecordsTotal: l.journalRecords.Load(),
		RecoveryNS:          l.recoveryNS.Load(),
		SnapshotBytes:       l.snapshotBytes.Load(),
		CompactionsTotal:    l.compactions.Load(),
	}
}

// Err reports the sticky journal failure, or nil while the log is
// healthy. A nil or closed-but-healthy Log reports nil; once an append
// or fsync has failed every future mutation fails, so health checks
// use this to flag the process as degraded.
func (l *Log) Err() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err == nil {
		return nil
	}
	return fmt.Errorf("%w: %w", ErrLogFailed, l.err)
}

// Close stops the compactor, writes a final manifest when records
// accumulated since the last one, and closes the active segment. A nil
// Log is a no-op.
func (l *Log) Close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	close(l.done)
	l.mu.Unlock()
	l.wg.Wait()

	l.mu.Lock()
	defer l.mu.Unlock()
	var err error
	if l.err == nil && l.since > 0 {
		err = l.compactLocked()
	}
	l.closed = true
	if cerr := l.seg.Close(); err == nil && l.err == nil {
		err = cerr
	}
	return err
}
