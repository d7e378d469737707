package store

// The fixture under testdata/legacy/ is a store root holding two
// document directories written the way older versions of this package
// wrote them: an "EGW1" whole-document snapshot (internal/encoding) and
// WAL segments interleaving legacy per-event blocks (MarshalEvents)
// with columnar ones. No writer produces those bytes any more, so the
// committed files are the only thing keeping the readers honest:
//
//   - egw1-snapshot: snap-00000002.egw (EGW1) + wal-00000002.seg
//     holding the four tail batches;
//   - mixed-wal: wal-00000001.seg holding the base history as a legacy
//     block followed by the same four tail batches.
//
// Regenerate with
//
//	go test ./store -run TestLegacyFixture -update-legacy-fixture
//
// only if the history below changes; the point of the fixture is that
// its bytes stay what the old writers produced.

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"egwalker"
	"egwalker/internal/colenc"
	"egwalker/internal/encoding"
)

var updateLegacyFixture = flag.Bool("update-legacy-fixture", false, "rewrite testdata/legacy")

const legacyFixtureRoot = "testdata/legacy"

// legacyFixtureHistory builds the fixture's history deterministically:
// the base alice typed before the snapshot, then four tail batches
// (even ones journaled as legacy blocks, odd ones as columnar), the
// second of which merges a concurrent fork. want holds all of it.
func legacyFixtureHistory(t testing.TB) (base []egwalker.Event, tail [][]egwalker.Event, want *egwalker.Doc) {
	t.Helper()
	a := egwalker.NewDoc("alice")
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(a.Insert(0, "legacy snapshot"))
	base = a.Events()
	v := a.Version()
	cut := func() {
		evs, err := a.EventsSince(v)
		must(err)
		tail = append(tail, evs)
		v = a.Version()
	}
	must(a.Insert(a.Len(), " + tail"))
	cut()
	b, err := a.Fork("bob")
	must(err)
	must(b.Insert(0, "[bob] "))
	must(a.Delete(0, 7))
	must(a.Merge(b))
	cut()
	must(a.Insert(a.Len(), "!"))
	cut()
	must(a.Insert(0, "éé "))
	cut()
	return base, tail, a
}

// legacyFixtureBlock wraps a batch in the delta-block envelope with a
// legacy per-event or a columnar payload.
func legacyFixtureBlock(t testing.TB, evs []egwalker.Event, legacy bool) []byte {
	t.Helper()
	marshal := egwalker.MarshalEventsCompact
	if legacy {
		marshal = egwalker.MarshalEvents
	}
	payload, err := marshal(evs)
	if err != nil {
		t.Fatal(err)
	}
	block, err := egwalker.WrapDeltaPayload(payload)
	if err != nil {
		t.Fatal(err)
	}
	return block
}

// writeLegacyFixture regenerates testdata/legacy.
func writeLegacyFixture(t *testing.T) {
	base, tail, _ := legacyFixtureHistory(t)
	var tailBlocks []byte
	for i, evs := range tail {
		tailBlocks = append(tailBlocks, legacyFixtureBlock(t, evs, i%2 == 0)...)
	}
	segment := func(blocks ...[]byte) []byte {
		return bytes.Join(append([][]byte{segMagic[:], {segVersion}}, blocks...), nil)
	}
	// The EGW1 writer works on an operation log; rebuild one from the
	// base history through the columnar codec's decoder.
	payload, err := egwalker.MarshalEventsCompact(base)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := colenc.Decode(payload)
	if err != nil {
		t.Fatal(err)
	}
	l, err := colenc.BuildLog(dec.Events)
	if err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := encoding.Encode(&snap, l, encoding.Options{CacheFinalDoc: true}, "legacy snapshot", nil); err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{
		"egw1-snapshot/" + snapName(2): snap.Bytes(),
		"egw1-snapshot/" + segName(2):  segment(tailBlocks),
		"mixed-wal/" + segName(1):      segment(legacyFixtureBlock(t, base, true), tailBlocks),
	}
	for name, data := range files {
		path := filepath.Join(legacyFixtureRoot, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// copyLegacyFixture copies one fixture document into a fresh store
// root (opening it writes a LOCK file and may repair or append),
// checking on the way that the files still hold what the old writers
// wrote: an EGW1 snapshot, if any, and both kinds of WAL payload.
func copyLegacyFixture(t *testing.T, docID string) string {
	t.Helper()
	root := t.TempDir()
	src := filepath.Join(legacyFixtureRoot, docID)
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatalf("missing fixture %s (run with -update-legacy-fixture to create): %v", src, err)
	}
	if err := os.MkdirAll(filepath.Join(root, docID), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := parseSeq(e.Name(), "snap-", ".egw"); ok && !bytes.HasPrefix(data, []byte("EGW1")) {
			t.Fatalf("fixture snapshot %s is not EGW1", e.Name())
		}
		if _, ok := parseSeq(e.Name(), "wal-", ".seg"); ok {
			var legacy, columnar int
			if _, err := walkSegmentBlocks(data, func(payload []byte) error {
				if egwalker.IsCompactBatch(payload) {
					columnar++
				} else {
					legacy++
				}
				return nil
			}); err != nil || legacy == 0 || columnar == 0 {
				t.Fatalf("fixture segment %s: %d legacy and %d columnar blocks (%v), want both", e.Name(), legacy, columnar, err)
			}
		}
		if err := os.WriteFile(filepath.Join(root, docID, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// TestLegacyFixture opens each fixture document the way a server
// does, serves a cold join from it, checks the recorded history, then
// journals new events on top and checks a reopen converges. The EGW1
// snapshot cannot be journal-scanned or streamed as a frame, so that
// document materializes on open and joins fall back to a decoded
// catch-up; the mixed WAL journal-scans and block-serves.
func TestLegacyFixture(t *testing.T) {
	if *updateLegacyFixture {
		writeLegacyFixture(t)
	}
	_, _, want := legacyFixtureHistory(t)
	for _, tc := range []struct {
		docID   string
		journal bool // OpenLazy stays journal-only and CutForServe succeeds
	}{
		{"egw1-snapshot", false},
		{"mixed-wal", true},
	} {
		t.Run(tc.docID, func(t *testing.T) {
			root := copyLegacyFixture(t, tc.docID)

			ds, err := OpenLazy(root, tc.docID, "srv", Options{})
			if err != nil {
				t.Fatal(err)
			}
			if got := ds.Materialized(); got == tc.journal {
				t.Fatalf("OpenLazy materialized = %v, want %v", got, !tc.journal)
			}
			if got := ds.NumEvents(); got != want.NumEvents() {
				t.Fatalf("OpenLazy counts %d events, want %d", got, want.NumEvents())
			}
			if _, ok := ds.CutForServe(); ok != tc.journal {
				t.Fatalf("CutForServe ok = %v, want %v", ok, tc.journal)
			}
			if err := ds.Close(); err != nil {
				t.Fatal(err)
			}

			srv, err := NewServer(root, ServerOptions{FlushInterval: time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			joined := coldCompactJoin(t, srv, tc.docID, want.NumEvents())
			m := srv.MetricsSnapshot()
			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}
			if joined.Text() != want.Text() {
				t.Fatalf("cold join text %q, want %q", joined.Text(), want.Text())
			}
			if served := m.BlockServes == 1 && m.FullSnapshots == 0; served != tc.journal {
				t.Fatalf("join: %d block serves, %d decoded catch-ups", m.BlockServes, m.FullSnapshots)
			}

			next, err := want.Fork("carol")
			if err != nil {
				t.Fatal(err)
			}
			if err := next.Insert(next.Len(), " (appended)"); err != nil {
				t.Fatal(err)
			}
			fresh, err := next.EventsSince(want.Version())
			if err != nil {
				t.Fatal(err)
			}
			ds, err = OpenLazy(root, tc.docID, "srv", Options{})
			if err != nil {
				t.Fatal(err)
			}
			if n, err := ds.IngestBatch(fresh, nil); err != nil || n != len(fresh) {
				t.Fatalf("IngestBatch = %d, %v; want %d new events", n, err, len(fresh))
			}
			if got := ds.Text(); got != next.Text() {
				t.Fatalf("text after ingest %q, want %q", got, next.Text())
			}
			if err := ds.Close(); err != nil {
				t.Fatal(err)
			}

			re, err := Open(root, tc.docID, "srv", Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if fp, _ := re.Fingerprint(); re.Text() != next.Text() || fp != next.Fingerprint() {
				t.Fatalf("reopen diverged: %q, want %q", re.Text(), next.Text())
			}
		})
	}
}
