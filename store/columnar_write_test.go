package store

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"egwalker"
	"egwalker/netsync"
)

// walPayloads returns every block payload in a document's WAL
// segments, oldest segment first.
func walPayloads(t *testing.T, root, docID string) [][]byte {
	t.Helper()
	var out [][]byte
	for _, path := range segPaths(t, root, docID) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		w, err := walkSegmentBlocks(data, func(payload []byte) error {
			out = append(out, append([]byte(nil), payload...))
			return nil
		})
		if err != nil || w.tail != nil {
			t.Fatalf("%s: %v / %v", filepath.Base(path), err, w.tail)
		}
	}
	return out
}

// TestSmallCommitsWriteOnlyColumnar: batches far below any run-length
// break-even — a 1-event and a 7-event group commit on a materialized
// document, and a legacy-encoded upload journaled by a journal-only
// one — all land in the WAL as columnar blocks, and a cold join of the
// document receives nothing but columnar frames.
func TestSmallCommitsWriteOnlyColumnar(t *testing.T) {
	root := t.TempDir()
	const docID = "small-commits"
	src := egwalker.NewDoc("writer")
	v := src.Version()
	next := func(text string) []egwalker.Event {
		t.Helper()
		if err := src.Insert(src.Len(), text); err != nil {
			t.Fatal(err)
		}
		evs, err := src.EventsSince(v)
		if err != nil {
			t.Fatal(err)
		}
		v = src.Version()
		return evs
	}

	ds, err := Open(root, docID, "srv", Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, text := range []string{"a", "bcdefgh"} {
		if _, err := ds.Apply(next(text)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}

	ds, err = OpenLazy(root, docID, "srv", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Materialized() {
		t.Fatal("columnar WAL did not journal-scan")
	}
	upload := next("ij")
	legacy, err := egwalker.MarshalEvents(upload)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ds.IngestBatch(upload, legacy); err != nil {
		t.Fatal(err)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}

	payloads := walPayloads(t, root, docID)
	if len(payloads) != 3 {
		t.Fatalf("WAL holds %d blocks, want 3", len(payloads))
	}
	for i, p := range payloads {
		if !egwalker.IsCompactBatch(p) {
			t.Fatalf("WAL block %d is not columnar", i)
		}
	}

	srv, err := NewServer(root, ServerOptions{FlushInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cs, ss := net.Pipe()
	serveOne(t, srv, ss)
	defer cs.Close()
	pc := netsync.NewPeerConn(cs)
	if err := pc.SendHello(netsync.Hello{DocID: docID, Compact: true}); err != nil {
		t.Fatal(err)
	}
	joined := egwalker.NewDoc("joiner")
	cs.SetReadDeadline(time.Now().Add(10 * time.Second))
	for joined.NumEvents() < src.NumEvents() {
		evs, raw, done, err := pc.Recv()
		if err != nil || done {
			t.Fatalf("cold join with %d/%d events: done=%v err=%v", joined.NumEvents(), src.NumEvents(), done, err)
		}
		if !egwalker.IsCompactBatch(raw) {
			t.Fatal("cold join received a non-columnar frame")
		}
		if _, err := joined.Apply(evs); err != nil {
			t.Fatal(err)
		}
	}
	if joined.Text() != src.Text() {
		t.Fatalf("joined %q, want %q", joined.Text(), src.Text())
	}
}

// TestServeRejectsLegacyUpload: an events frame carrying the legacy
// per-event payload, sent after a valid hello on a client or a replica
// link, ends that connection with an error before anything is
// journaled or forwarded — fan-out relays an upload's bytes verbatim,
// so admitting it would push the retired encoding to every subscriber.
func TestServeRejectsLegacyUpload(t *testing.T) {
	srv := newTestServer(t, ServerOptions{FlushInterval: time.Millisecond})
	const docID = "legacy-upload"
	seed := egwalker.NewDoc("seed")
	if err := seed.Insert(0, "seed"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Append(docID, seed.Events()); err != nil {
		t.Fatal(err)
	}

	watchCS, watchSS := net.Pipe()
	defer watchCS.Close()
	serveOne(t, srv, watchSS)
	watch := netsync.NewPeerConn(watchCS)
	if err := watch.SendHello(netsync.Hello{DocID: docID, Compact: true}); err != nil {
		t.Fatal(err)
	}
	recvInto(t, watch, egwalker.NewDoc("watcher"), seed.NumEvents())

	uploader, err := seed.Fork("uploader")
	if err != nil {
		t.Fatal(err)
	}
	if err := uploader.Insert(0, "legacy "); err != nil {
		t.Fatal(err)
	}
	evs, err := uploader.EventsSince(seed.Version())
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := egwalker.MarshalEvents(evs)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name  string
		hello netsync.Hello
	}{
		{"client", netsync.Hello{DocID: docID, Compact: true}},
		{"replica", netsync.Hello{DocID: docID, Compact: true, Replica: true, Summary: seed.Summary()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cs, ss := net.Pipe()
			defer cs.Close()
			served := make(chan error, 1)
			go func() {
				served <- srv.ServeConn(ss)
				ss.Close()
			}()
			// Swallow the handshake answer (catch-up or summary exchange).
			go func() {
				buf := make([]byte, 4096)
				for {
					if _, err := cs.Read(buf); err != nil {
						return
					}
				}
			}()
			pc := netsync.NewPeerConn(cs)
			if err := pc.SendHello(tc.hello); err != nil {
				t.Fatal(err)
			}
			if err := pc.SendRaw(legacy); err != nil {
				t.Fatal(err)
			}
			select {
			case err := <-served:
				if err == nil {
					t.Fatal("connection ended cleanly after a legacy upload")
				}
			case <-time.After(10 * time.Second):
				t.Fatal("legacy upload accepted: connection still open")
			}
		})
	}

	watchCS.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
	if _, _, _, err := watch.Recv(); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("subscriber received something after the refused uploads (err %v)", err)
	}
	if err := srv.With(docID, func(ds *DocStore) error {
		if n := ds.NumEvents(); n != seed.NumEvents() {
			return fmt.Errorf("store holds %d events, want the %d seeded", n, seed.NumEvents())
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestFlushOnceEvictsInOnePass: a flush tick over many idle
// materialized documents leaves exactly MaxOpenDocs materialized and
// keeps every document open, releasing its pins in one batch.
func TestFlushOnceEvictsInOnePass(t *testing.T) {
	srv := newTestServer(t, ServerOptions{MaxOpenDocs: 2, MaxJournalDocs: 100, FlushInterval: time.Hour})
	const n = 50
	var pinned []*entry
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("doc-%02d", i)
		if err := srv.Append(id, []egwalker.Event{{ID: egwalker.EventID{Agent: "a"}, Insert: true, Content: 'x'}}); err != nil {
			t.Fatal(err)
		}
		e, err := srv.acquire(id)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.ds.Materialize(); err != nil {
			t.Fatal(err)
		}
		pinned = append(pinned, e)
	}
	// Unpin without evicting: n idle materialized documents.
	srv.mu.Lock()
	for _, e := range pinned {
		e.refs--
	}
	srv.mu.Unlock()
	if got := srv.OpenCount(); got != n {
		t.Fatalf("%d materialized before the flush, want %d", got, n)
	}

	srv.flushOnce()
	if got := srv.OpenCount(); got != 2 {
		t.Fatalf("%d materialized after the flush, want 2", got)
	}
	if got := srv.JournalCount(); got != n {
		t.Fatalf("%d open after the flush, want %d", got, n)
	}
}
