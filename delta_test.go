package egwalker

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"testing"
)

func buildDivergedDocs(t *testing.T) (*Doc, *Doc) {
	t.Helper()
	a := NewDoc("alice")
	if err := a.Insert(0, "shared base text"); err != nil {
		t.Fatal(err)
	}
	b, err := a.Fork("bob")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Insert(0, "A-side! "); err != nil {
		t.Fatal(err)
	}
	if err := b.Insert(b.Len(), " B-side!"); err != nil {
		t.Fatal(err)
	}
	if err := b.Delete(0, 3); err != nil {
		t.Fatal(err)
	}
	return a, b
}

func TestMarshalEventsRoundTrip(t *testing.T) {
	a, b := buildDivergedDocs(t)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	evs := a.Events()
	data, err := MarshalEvents(evs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalEvents(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(evs) {
		t.Fatalf("got %d events, want %d", len(got), len(evs))
	}
	fresh := NewDoc("fresh")
	if _, err := fresh.Apply(got); err != nil {
		t.Fatal(err)
	}
	if fresh.Text() != a.Text() {
		t.Fatalf("replayed text %q != original %q", fresh.Text(), a.Text())
	}
}

func TestSaveSinceDeltaRoundTrip(t *testing.T) {
	a, b := buildDivergedDocs(t)
	// b saves what a is missing relative to the shared base.
	shared := Version{}
	for _, id := range a.Version() {
		if b.Knows(id) {
			shared = append(shared, id)
		}
	}
	var buf bytes.Buffer
	if err := b.SaveSince(&buf, shared); err != nil {
		t.Fatal(err)
	}
	// One block: uvarint length, CRC32-C, then a columnar payload.
	if _, n := binary.Uvarint(buf.Bytes()); !IsCompactBatch(buf.Bytes()[n+4:]) {
		t.Fatal("SaveSince wrote a non-columnar payload")
	}
	if _, err := a.ApplyDelta(&buf); err != nil {
		t.Fatal(err)
	}
	if err := b.Merge(a); err != nil {
		t.Fatal(err)
	}
	if a.Text() != b.Text() {
		t.Fatalf("texts diverged after delta merge: %q vs %q", a.Text(), b.Text())
	}
}

// TestSaveThenAppendDeltas exercises the incremental-save pattern: one
// full Save, then successive SaveSince blocks appended to the same
// buffer, reloaded as snapshot + delta replay.
func TestSaveThenAppendDeltas(t *testing.T) {
	d := NewDoc("writer")
	var file bytes.Buffer
	if err := d.Insert(0, "v1 of the document"); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := d.Save(&snap, SaveOptions{CacheFinalDoc: true}); err != nil {
		t.Fatal(err)
	}
	saved := d.Version()
	for i := 0; i < 5; i++ {
		if err := d.Insert(d.Len(), " +more"); err != nil {
			t.Fatal(err)
		}
		if err := d.Delete(0, 1); err != nil {
			t.Fatal(err)
		}
		if err := d.SaveSince(&file, saved); err != nil {
			t.Fatal(err)
		}
		saved = d.Version()
	}
	loaded, err := Load(&snap, "reader")
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := loaded.ApplyDelta(&file); err != nil {
			if err == io.EOF {
				break
			}
			t.Fatal(err)
		}
	}
	if loaded.Text() != d.Text() {
		t.Fatalf("snapshot+delta text %q != live %q", loaded.Text(), d.Text())
	}
}

func TestReadDeltaTornAndCorrupt(t *testing.T) {
	d := NewDoc("w")
	if err := d.Insert(0, "some content to protect"); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.SaveSince(&buf, Version{}); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()

	// Every strict prefix must read as clean EOF (empty input) or a torn
	// block, never as corruption or success.
	for cut := 0; cut < len(whole); cut++ {
		_, err := ReadDelta(bytes.NewReader(whole[:cut]))
		switch {
		case cut == 0 && err == io.EOF:
		case errors.Is(err, io.ErrUnexpectedEOF):
		default:
			t.Fatalf("cut %d: got %v, want torn-block error", cut, err)
		}
	}

	// Any single byte flip past the length prefix must be caught by the
	// checksum (or fail decode), never silently succeed with different
	// events.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		mut := append([]byte(nil), whole...)
		at := 1 + rng.Intn(len(mut)-1)
		mut[at] ^= 1 << uint(rng.Intn(8))
		evs, err := ReadDelta(bytes.NewReader(mut))
		if err == nil {
			t.Fatalf("flip at %d: corrupt block decoded to %d events", at, len(evs))
		}
	}
}
