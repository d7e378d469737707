package store

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"egwalker"
)

// layoutFiles captures a document directory's data files (everything
// but the LOCK file) so one layout can be laid down fresh for each
// open: recovery repairs torn tails in place.
func layoutFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte)
	for _, e := range ents {
		if e.Name() == "LOCK" {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = data
	}
	return files
}

// writeLayout lays files down as document docID under a fresh root.
func writeLayout(t *testing.T, docID string, files map[string][]byte) string {
	t.Helper()
	root := t.TempDir()
	dir := filepath.Join(root, escapeDocID(docID))
	if err := os.MkdirAll(dir, 0o777); err != nil {
		t.Fatal(err)
	}
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o666); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// segmentedLayout writes a document spanning several sealed segments
// with a mid-history snapshot (not compacted, so an older snapshot and
// the segments it covers stay on disk), then lets mutate damage the
// directory.
func segmentedLayout(mutate func(t *testing.T, dir string)) func(t *testing.T) map[string][]byte {
	return func(t *testing.T) map[string][]byte {
		root := t.TempDir()
		ds := mustOpen(t, root, "doc", Options{SegmentMaxBytes: 1 << 10})
		for i := 0; i < 90; i++ {
			if err := ds.Insert(ds.Len(), fmt.Sprintf("line %d\n", i)); err != nil {
				t.Fatal(err)
			}
			if i == 20 || i == 40 {
				if err := ds.Snapshot(); err != nil {
					t.Fatal(err)
				}
			}
		}
		dir := ds.dir
		if err := ds.Close(); err != nil {
			t.Fatal(err)
		}
		if mutate != nil {
			mutate(t, dir)
		}
		return layoutFiles(t, dir)
	}
}

// newestFile returns the path of the highest-numbered file matching
// pattern in dir.
func newestFile(t *testing.T, dir, pattern string) string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, pattern))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no %s in %s", pattern, dir)
	}
	return paths[len(paths)-1]
}

func truncateTo(t *testing.T, path string, size int64) {
	t.Helper()
	if err := os.Truncate(path, size); err != nil {
		t.Fatal(err)
	}
}

// flipMidFile flips one bit in the middle of path.
func flipMidFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o666); err != nil {
		t.Fatal(err)
	}
}

// gapLayout journals a batch whose parents the WAL never holds: the
// second half of a history, written as a segment on its own.
func gapLayout(t *testing.T) map[string][]byte {
	d := egwalker.NewDoc("gap")
	if err := d.Insert(0, "first half "); err != nil {
		t.Fatal(err)
	}
	mid := d.Version()
	if err := d.Insert(d.Len(), "second half"); err != nil {
		t.Fatal(err)
	}
	tail, err := d.EventsSince(mid)
	if err != nil {
		t.Fatal(err)
	}
	return map[string][]byte{segName(1): segmentOf(blocksOf(t, tail))}
}

// openOutcome is everything a caller can observe right after an open.
type openOutcome struct {
	err         bool
	text        string
	events      int
	recovery    RecoveryInfo
	quarantined bool
	salvage     SalvageInfo
}

func observeOpen(t *testing.T, open func(root, docID, agent string, opts Options) (*DocStore, error), root string, opts Options) openOutcome {
	t.Helper()
	ds, err := open(root, "doc", "tester", opts)
	if err != nil {
		return openOutcome{err: true}
	}
	defer ds.Close()
	out := openOutcome{recovery: ds.Recovery(), events: ds.NumEvents(), salvage: ds.Salvage()}
	out.quarantined, _ = ds.Quarantined()
	if err := ds.Materialize(); err != nil {
		t.Fatalf("materialize after open: %v", err)
	}
	out.text = ds.Text()
	if out.events != ds.NumEvents() {
		t.Fatalf("event count %d before materializing, %d after", out.events, ds.NumEvents())
	}
	return out
}

// TestOpenAndOpenLazyAgree opens every recoverable (and unrecoverable)
// directory layout with both Open and OpenLazy: they must agree on
// the recovered text, event count, RecoveryInfo and quarantine state,
// and each layout's recovery must have done what the layout calls for.
func TestOpenAndOpenLazyAgree(t *testing.T) {
	legacy := func(docID string) func(t *testing.T) map[string][]byte {
		return func(t *testing.T) map[string][]byte {
			return layoutFiles(t, filepath.Join(copyLegacyFixture(t, docID), docID))
		}
	}
	midSegment := segmentedLayout(func(t *testing.T, dir string) {
		// The first segment the newest snapshot does not cover, sealed.
		var seq uint64
		fmt.Sscanf(filepath.Base(newestFile(t, dir, "snap-*.egw")), "snap-%08d.egw", &seq)
		if newestFile(t, dir, "wal-*.seg") == filepath.Join(dir, segName(seq)) {
			t.Fatal("layout has no sealed segment past the newest snapshot")
		}
		flipMidFile(t, filepath.Join(dir, segName(seq)))
	})
	for _, tc := range []struct {
		name   string
		layout func(t *testing.T) map[string][]byte
		opts   Options
		check  func(t *testing.T, o openOutcome)
	}{
		{"clean", segmentedLayout(nil), Options{}, func(t *testing.T, o openOutcome) {
			if o.recovery.SnapshotSeq == 0 || o.recovery.EventsReplayed == 0 || o.recovery.TruncatedBytes != 0 {
				t.Fatalf("recovery %+v, want snapshot + tail replay, nothing truncated", o.recovery)
			}
		}},
		{"torn-tail", segmentedLayout(func(t *testing.T, dir string) {
			seg := newestFile(t, dir, "wal-*.seg")
			fi, _ := os.Stat(seg)
			truncateTo(t, seg, fi.Size()-3)
		}), Options{}, func(t *testing.T, o openOutcome) {
			if o.recovery.TruncatedBytes == 0 {
				t.Fatalf("recovery %+v, want a truncated tail", o.recovery)
			}
		}},
		{"torn-header", segmentedLayout(func(t *testing.T, dir string) {
			seg := newestFile(t, dir, "wal-*.seg")
			var seq uint64
			fmt.Sscanf(filepath.Base(seg), "wal-%08d.seg", &seq)
			next := filepath.Join(dir, segName(seq+1))
			if err := os.WriteFile(next, segMagic[:3], 0o666); err != nil {
				t.Fatal(err)
			}
		}), Options{}, func(t *testing.T, o openOutcome) {
			if o.recovery.TruncatedBytes != 3 {
				t.Fatalf("recovery %+v, want the 3-byte header cut", o.recovery)
			}
		}},
		{"corrupt-newest-snapshot", segmentedLayout(func(t *testing.T, dir string) {
			snap := newestFile(t, dir, "snap-*.egw")
			fi, _ := os.Stat(snap)
			truncateTo(t, snap, fi.Size()/2)
		}), Options{}, func(t *testing.T, o openOutcome) {
			if o.recovery.SkippedSnapshots != 1 || o.recovery.SnapshotSeq == 0 {
				t.Fatalf("recovery %+v, want one skipped snapshot and an older one loaded", o.recovery)
			}
		}},
		{"legacy-egw1-snapshot", legacy("egw1-snapshot"), Options{}, nil},
		{"legacy-mixed-wal", legacy("mixed-wal"), Options{}, nil},
		{"wal-causal-gap", gapLayout, Options{}, func(t *testing.T, o openOutcome) {
			if !o.err {
				t.Fatal("a WAL causal gap opened")
			}
		}},
		{"wal-causal-gap-quarantine", gapLayout, Options{Quarantine: true}, func(t *testing.T, o openOutcome) {
			if !o.quarantined || o.salvage.DroppedEvents == 0 {
				t.Fatalf("quarantined=%v salvage %+v, want quarantine with dropped events", o.quarantined, o.salvage)
			}
		}},
		{"mid-segment", midSegment, Options{}, func(t *testing.T, o openOutcome) {
			if !o.err {
				t.Fatal("mid-segment damage opened without quarantine")
			}
		}},
		{"mid-segment-quarantine", midSegment, Options{Quarantine: true}, func(t *testing.T, o openOutcome) {
			if !o.quarantined || o.salvage.CorruptBlocks == 0 {
				t.Fatalf("quarantined=%v salvage %+v, want quarantine with corrupt blocks", o.quarantined, o.salvage)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			files := tc.layout(t)
			eager := observeOpen(t, Open, writeLayout(t, "doc", files), tc.opts)
			lazy := observeOpen(t, OpenLazy, writeLayout(t, "doc", files), tc.opts)
			if eager != lazy {
				t.Fatalf("Open and OpenLazy disagree:\n  Open:     %+v\n  OpenLazy: %+v", eager, lazy)
			}
			if tc.check != nil {
				tc.check(t, eager)
			}
		})
	}
}
