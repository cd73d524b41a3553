package serve

import (
	"fmt"

	"github.com/ccer-go/ccer/internal/durable"
)

// logPersister adapts the durable log to the Store's Persister hook:
// every store mutation commits to the journal (snapshot files first)
// before it becomes visible.
type logPersister struct{ log *durable.Log }

func (p logPersister) PersistPut(e *GraphEntry) error {
	return p.log.PutGraph(durable.GraphRecord{
		Name:     e.Name,
		Version:  e.Version,
		Checksum: e.Checksum,
		Source:   e.Source,
		Dataset:  e.Dataset,
		Seed:     e.Seed,
		Scale:    e.Scale,
		Created:  e.Created,
	}, e.Graph, e.GT)
}

func (p logPersister) PersistDelete(name string) error {
	return p.log.DeleteGraph(name)
}

// openDurable mounts the data directory, preloads the store with the
// recovered committed state (every graph already verified against its
// record checksum by durable.Open), and attaches the persister so
// subsequent mutations are journaled.
func (s *Server) openDurable() error {
	log, rec, err := durable.Open(durable.Config{
		Dir:          s.cfg.DataDir,
		FS:           s.cfg.DataFS,
		CompactEvery: s.cfg.CompactEvery,
		Obs:          s.obs,
	})
	if err != nil {
		return fmt.Errorf("serve: open data dir %s: %v", s.cfg.DataDir, err)
	}
	entries := make([]*GraphEntry, 0, len(rec.Graphs))
	for _, rg := range rec.Graphs {
		entries = append(entries, &GraphEntry{
			Name:     rg.Record.Name,
			Version:  rg.Record.Version,
			Checksum: rg.Record.Checksum,
			Graph:    rg.Graph,
			GT:       rg.GT,
			Source:   rg.Record.Source,
			Dataset:  rg.Record.Dataset,
			Seed:     rg.Record.Seed,
			Scale:    rg.Record.Scale,
			Created:  rg.Record.Created,
		})
	}
	s.store.Load(entries)
	s.store.SetPersister(logPersister{log: log})
	s.log = log
	return nil
}
