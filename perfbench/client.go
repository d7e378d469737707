package main

import (
	"fmt"
	"os"
	"time"

	"egwalker"
	"egwalker/internal/trace"
	"egwalker/netsync"
	"egwalker/store"
)

// fixtureFS is the real filesystem with fsync turned off. Fixtures are
// written through the store's own DocStore path (so the server later
// opens exactly what it would have written), but without paying a
// device flush per document during set-up: nothing crashes between
// writing a fixture and serving it.
type fixtureFS struct{ store.OSFS }

func (fixtureFS) OpenFile(name string, flag int, perm os.FileMode) (store.File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return noSyncFile{f}, nil
}

type noSyncFile struct{ *os.File }

func (noSyncFile) Sync() error { return nil }

// populate writes a document's history under root as one compact WAL
// block, the same bytes a compact upload journals; snapshot also folds
// it into a snapshot, as the server's compactor would have.
func populate(root, docID string, events []egwalker.Event, raw []byte, snapshot bool) error {
	ds, err := store.OpenLazy(root, docID, "server", store.Options{FS: fixtureFS{}})
	if err != nil {
		return err
	}
	if _, err := ds.IngestBatch(events, raw); err != nil {
		ds.Close()
		return err
	}
	if snapshot {
		if err := ds.Compact(); err != nil {
			ds.Close()
			return err
		}
	}
	return ds.Close()
}

// typeHistory types into doc until it holds n events.
func typeHistory(doc *egwalker.Doc, t *trace.Typist, n int) error {
	for doc.NumEvents() < n {
		if _, err := edit(doc, t); err != nil {
			return err
		}
	}
	return nil
}

// edit applies the typist's next burst to doc and returns the burst's
// events. The caller holds whatever lock guards doc.
func edit(doc *egwalker.Doc, t *trace.Typist) ([]egwalker.Event, error) {
	v := doc.Version()
	e := t.Next(doc.Len())
	var err error
	if e.Delete {
		err = doc.Delete(e.Pos, e.Len)
	} else {
		err = doc.Insert(e.Pos, e.Text)
	}
	if err != nil {
		return nil, err
	}
	return doc.EventsSince(v)
}

// startServer starts the instance's server; a traced instance wraps
// its connections to time the relay path.
func (e *env) startServer() error {
	var relay *relayIndex
	if e.tr != nil {
		e.frameOwner = make(map[uint64]int64)
		relay = newRelayIndex(func(hash uint64, read, written time.Time) {
			e.mu.Lock()
			parent := e.frameOwner[hash]
			e.mu.Unlock()
			if parent != 0 {
				e.tr.add(0, parent, "store.relay", read, written, 0, 0)
			}
		})
	}
	h, err := newHarness(e.dir, relay)
	if err != nil {
		return err
	}
	e.h = h
	return nil
}

// upload encodes events in the compact columnar encoding and sends
// them, recording encode and send spans under parent (and, traced,
// which operation each frame belongs to, for the relay spans). It
// returns the frame payloads sent.
func (e *env) upload(parent int64, pc *netsync.PeerConn, events []egwalker.Event) ([][]byte, error) {
	tr := e.tr
	t0 := time.Now()
	chunks, err := netsync.MarshalChunksCompact(events)
	if err != nil {
		return nil, fmt.Errorf("encoding upload: %w", err)
	}
	tr.add(0, parent, "egwalker.encode", t0, time.Now(), len(events), 0)
	if tr != nil && parent != 0 {
		e.mu.Lock()
		for _, c := range chunks {
			e.frameOwner[payloadHash(c)] = parent
		}
		e.mu.Unlock()
	}
	for i, c := range chunks {
		t1 := time.Now()
		if err := pc.SendRaw(c); err != nil {
			return nil, fmt.Errorf("uploading: %w", err)
		}
		// The first frame's span carries the whole upload's events and
		// bytes, so per-event byte counts sum correctly.
		n, b := 0, 0
		if i == 0 {
			n, b = len(events), frameBytes(chunks)
		}
		tr.add(0, parent, "netsync.send", t1, time.Now(), n, b)
	}
	return chunks, nil
}

func frameBytes(chunks [][]byte) int {
	n := 0
	for _, c := range chunks {
		n += len(c) + 5 // payload plus the frame header
	}
	return n
}

// decodeSpan re-decodes a received frame to time the decoder alone
// (Recv already decoded it); traced runs only.
func decodeSpan(tr *tracer, parent int64, raw []byte) {
	if tr == nil || raw == nil {
		return
	}
	t0 := time.Now()
	evs, err := egwalker.UnmarshalEventsAuto(raw)
	if err == nil {
		tr.add(0, parent, "egwalker.decode", t0, time.Now(), len(evs), len(raw))
	}
}
