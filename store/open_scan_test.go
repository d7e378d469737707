package store

import (
	"path/filepath"
	"testing"

	"egwalker"
)

// segmentOf assembles a segment image from encoded blocks.
func segmentOf(blocks ...[]byte) []byte {
	seg := append(append([]byte(nil), segMagic[:]...), segVersion)
	for _, b := range blocks {
		seg = append(seg, b...)
	}
	return seg
}

// blocksOf encodes events as columnar WAL blocks.
func blocksOf(t *testing.T, evs []egwalker.Event) []byte {
	t.Helper()
	blocks, err := walBlocks(evs)
	if err != nil {
		t.Fatal(err)
	}
	var out []byte
	for _, b := range blocks {
		out = append(out, b...)
	}
	return out
}

// TestOpenRecoversByJournalScan pins how Open treats layouts that only
// a full replay could tell apart from clean ones. Open and OpenLazy
// recover through the same journal scan, so they agree on each; where
// the scan is stricter than replaying every block into a document
// would be, the layout is one no writer produces, and refusing it (or
// quarantining it, with Options.Quarantine) keeps the damage visible.
func TestOpenRecoversByJournalScan(t *testing.T) {
	d := egwalker.NewDoc("w")
	if err := d.Insert(0, "0123456789"); err != nil {
		t.Fatal(err)
	}
	evs, text := d.Events(), d.Text()

	t.Run("duplicate-events", func(t *testing.T) {
		// A verbatim upload may repeat events the WAL already holds;
		// recovery counts each event once.
		files := map[string][]byte{segName(1): segmentOf(blocksOf(t, evs[:5]), blocksOf(t, evs))}
		for _, open := range []func(root, docID, agent string, opts Options) (*DocStore, error){Open, OpenLazy} {
			ds, err := open(writeLayout(t, "doc", files), "doc", "tester", Options{})
			if err != nil {
				t.Fatal(err)
			}
			ri := ds.Recovery()
			if ri.EventsReplayed != len(evs) || ds.NumEvents() != len(evs) || ds.Text() != text {
				t.Fatalf("recovered %d events (%+v) text %q, want %d events counted once, text %q",
					ds.NumEvents(), ri, ds.Text(), len(evs), text)
			}
			if got := ds.UnsnapshottedEvents(); got != len(evs) {
				t.Fatalf("compaction pressure %d events, want %d", got, len(evs))
			}
			ds.Close()
		}
	})

	undecodable, err := egwalker.WrapDeltaPayload([]byte{1, 1, 'w', 3}) // legacy batch cut short
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		files map[string][]byte
		// salvaged is how many events quarantine-time salvage recovers.
		salvaged int
	}{
		// Blocks out of causal order: a child batch before its parents.
		{"out-of-order-blocks", map[string][]byte{
			segName(1): segmentOf(blocksOf(t, evs[5:]), blocksOf(t, evs[:5])),
		}, len(evs)},
		// A segment missing from the numbering, even one that held
		// nothing the rest depends on.
		{"segment-numbering-gap", map[string][]byte{
			segName(1): segmentOf(blocksOf(t, evs)),
			segName(3): segmentOf(),
		}, len(evs)},
		// A block whose checksum holds but whose payload does not
		// decode, at the tail of the last segment: a writer bug, not a
		// torn append, so it is never truncated away.
		{"undecodable-tail-block", map[string][]byte{
			segName(1): segmentOf(blocksOf(t, evs), undecodable),
		}, len(evs)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, open := range []func(root, docID, agent string, opts Options) (*DocStore, error){Open, OpenLazy} {
				if ds, err := open(writeLayout(t, "doc", tc.files), "doc", "tester", Options{}); err == nil {
					ds.Close()
					t.Fatal("layout opened without quarantine")
				}
				ds, err := open(writeLayout(t, "doc", tc.files), "doc", "tester", Options{Quarantine: true})
				if err != nil {
					t.Fatal(err)
				}
				q, _ := ds.Quarantined()
				if !q || ds.NumEvents() != tc.salvaged {
					t.Fatalf("quarantined=%v with %d events, want quarantine salvaging %d", q, ds.NumEvents(), tc.salvaged)
				}
				ds.Close()
			}
		})
	}

	t.Run("snapshot-inspects-but-does-not-load", func(t *testing.T) {
		// The content-compression flag sits outside the frame checksum;
		// flipping it leaves the ID columns inspectable but the
		// snapshot unloadable. The scan adopts the snapshot, so the
		// failure surfaces when the document materializes: at once for
		// Open, on first use for OpenLazy.
		root := t.TempDir()
		ds := mustOpen(t, root, "doc", Options{})
		if err := ds.Insert(0, "older "); err != nil {
			t.Fatal(err)
		}
		if err := ds.Snapshot(); err != nil {
			t.Fatal(err)
		}
		if err := ds.Insert(ds.Len(), "newer"); err != nil {
			t.Fatal(err)
		}
		if err := ds.Snapshot(); err != nil {
			t.Fatal(err)
		}
		dir := ds.dir
		ds.Close()
		files := layoutFiles(t, dir)
		newest := filepath.Base(newestFile(t, dir, "snap-*.egw"))
		snap := append([]byte(nil), files[newest]...)
		snap[4] ^= 1 << 1 // colenc FlagCompressed
		files[newest] = snap

		if ds, err := Open(writeLayout(t, "doc", files), "doc", "tester", Options{}); err == nil {
			ds.Close()
			t.Fatal("Open materialized an unloadable snapshot")
		}
		lz, err := OpenLazy(writeLayout(t, "doc", files), "doc", "tester", Options{})
		if err != nil {
			t.Fatal(err)
		}
		if lz.Materialize() == nil {
			t.Fatal("OpenLazy materialized an unloadable snapshot")
		}
		lz.Close()
		q, err := Open(writeLayout(t, "doc", files), "doc", "tester", Options{Quarantine: true})
		if err != nil {
			t.Fatal(err)
		}
		defer q.Close()
		if quarantined, _ := q.Quarantined(); !quarantined || q.Text() != "older newer" || q.Salvage().SkippedSnapshots != 1 {
			t.Fatalf("quarantined=%v text %q salvage %+v, want quarantine salvaging everything past the bad snapshot",
				quarantined, q.Text(), q.Salvage())
		}
	})
}
