package store

import (
	"bytes"
	"testing"

	"egwalker"
)

// validSegment builds a well-formed segment from a few edits — the
// fuzz baseline the mutator works from.
func validSegment(tb testing.TB) []byte {
	var buf bytes.Buffer
	buf.Write(segMagic[:])
	buf.WriteByte(segVersion)
	d := egwalker.NewDoc("seed")
	last := egwalker.Version{}
	steps := []func() error{
		func() error { return d.Insert(0, "hello fuzz") },
		func() error { return d.Delete(2, 3) },
		func() error { return d.Insert(d.Len(), " — tail✓") },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			tb.Fatal(err)
		}
		evs, err := d.EventsSince(last)
		if err != nil {
			tb.Fatal(err)
		}
		if err := egwalker.WriteDelta(&buf, evs); err != nil {
			tb.Fatal(err)
		}
		last = d.Version()
	}
	return buf.Bytes()
}

// FuzzSegmentReplay: the segment reader materialization uses
// (walkSegmentBlocks decoding through applySegment) must never panic
// on arbitrary bytes, must report a validLen within the data, and
// truncating a segment at its reported validLen must replay to the
// same state with no tail left (the torn-tail repair is a fixed
// point).
func FuzzSegmentReplay(f *testing.F) {
	good := validSegment(f)
	f.Add(good)
	f.Add(good[:len(good)-3])                     // torn tail
	f.Add([]byte{})                               // empty file
	f.Add([]byte{'E', 'G', 'W', 'S', segVersion}) // header only
	f.Add([]byte("not a segment at all"))

	f.Fuzz(func(t *testing.T, data []byte) {
		doc := egwalker.NewDoc("fuzz")
		w, err := applySegment(doc, data)
		if err != nil {
			// Not a segment, or a checksummed block that is structurally
			// hostile (undecodable, or rejected by Apply): refusing it is
			// the correct outcome, not a replay.
			return
		}
		if w.validLen > int64(len(data)) {
			t.Fatalf("validLen %d > segment size %d", w.validLen, len(data))
		}
		if w.validLen < segHeaderLen {
			// Segment torn inside its header: recovery recreates it
			// rather than truncating; nothing further to check here.
			return
		}
		// Repair fixed point: the prefix up to validLen must replay to
		// the identical state with no remaining tail error.
		re := egwalker.NewDoc("fuzz")
		w2, err := applySegment(re, data[:w.validLen])
		if err != nil {
			t.Fatalf("replay after truncation to validLen failed: %v", err)
		}
		if w2.tail != nil {
			t.Fatalf("tail error survived truncation to validLen: %v", w2.tail)
		}
		if w2.validLen != w.validLen {
			t.Fatalf("truncated replay ends at %d, want %d", w2.validLen, w.validLen)
		}
		if re.Text() != doc.Text() {
			t.Fatalf("truncated replay text %q != original %q", re.Text(), doc.Text())
		}
	})
}
