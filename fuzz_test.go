package egwalker_test

// FuzzDocSaveLoadRoundTrip drives whole documents through the public
// API — concurrent edits on several replicas, merges, and every
// persistence mode — from a fuzzed byte script. It complements
// internal/encoding's byte-level fuzzing (which attacks the decoder
// with corrupt input): here the encoder/decoder pair must round-trip
// every reachable document state.

import (
	"bytes"
	"reflect"
	"testing"

	"egwalker"
	"egwalker/internal/core"
	"egwalker/internal/encoding"
)

// runScript interprets script as edits/merges over three replicas.
// Every byte sequence is a valid script, so the fuzzer explores freely.
func runScript(t *testing.T, script []byte) []*egwalker.Doc {
	t.Helper()
	docs := []*egwalker.Doc{
		egwalker.NewDoc("a"), egwalker.NewDoc("b"), egwalker.NewDoc("c"),
	}
	next := func(i *int) byte {
		if *i >= len(script) {
			return 0
		}
		b := script[*i]
		*i++
		return b
	}
	for i := 0; i < len(script); {
		d := docs[int(next(&i))%len(docs)]
		switch next(&i) % 4 {
		case 0, 1: // insert one rune at a scripted position
			pos := int(next(&i)) % (d.Len() + 1)
			// Map the content byte over ASCII plus a few multi-byte runes.
			alphabet := []rune("abcdefghijklmnopqrstuvwxyz 0123456789éü漢🙂")
			r := alphabet[int(next(&i))%len(alphabet)]
			if err := d.Insert(pos, string(r)); err != nil {
				t.Fatalf("insert: %v", err)
			}
		case 2: // delete one rune
			if d.Len() == 0 {
				continue
			}
			pos := int(next(&i)) % d.Len()
			if err := d.Delete(pos, 1); err != nil {
				t.Fatalf("delete: %v", err)
			}
		case 3: // merge another replica in
			src := docs[int(next(&i))%len(docs)]
			if src != d {
				if err := d.Merge(src); err != nil {
					t.Fatalf("merge: %v", err)
				}
			}
		}
	}
	// Converge everyone so the invariants below see one document.
	for _, d := range docs {
		for _, s := range docs {
			if s != d {
				if err := d.Merge(s); err != nil {
					t.Fatalf("final merge: %v", err)
				}
			}
		}
	}
	return docs
}

func FuzzDocSaveLoadRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("hello fuzzer"))
	f.Add([]byte{0, 0, 0, 1, 1, 1, 2, 3, 0, 2, 2, 5, 1, 3, 2, 0, 3, 1})
	f.Add(bytes.Repeat([]byte{0, 0, 3, 7, 1, 2, 9, 4, 2, 3, 1, 0}, 40))
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 4096 {
			script = script[:4096]
		}
		docs := runScript(t, script)
		a := docs[0]
		for i, d := range docs[1:] {
			if d.Text() != a.Text() || d.Fingerprint() != a.Fingerprint() {
				t.Fatalf("replica %d did not converge: %q vs %q", i+1, d.Text(), a.Text())
			}
		}
		// Round-trip through every persistence mode — both the compact
		// columnar format (the default) and the legacy one.
		for _, mode := range egwalker.SaveModes {
			var buf bytes.Buffer
			if err := mode.Save(a, &buf); err != nil {
				t.Fatalf("save %+v: %v", mode, err)
			}
			loaded, err := egwalker.Load(bytes.NewReader(buf.Bytes()), "loader")
			if err != nil {
				t.Fatalf("load %+v: %v", mode, err)
			}
			if loaded.Text() != a.Text() {
				t.Fatalf("save/load %+v changed text: %q -> %q", mode, a.Text(), loaded.Text())
			}
			if loaded.NumEvents() != a.NumEvents() {
				t.Fatalf("save/load %+v changed event count: %d -> %d", mode, a.NumEvents(), loaded.NumEvents())
			}
			if loaded.Fingerprint() != a.Fingerprint() {
				t.Fatalf("save/load %+v changed fingerprint", mode)
			}
			// A second generation must be byte-stable: saving the loaded
			// doc with the same options yields a decodable, equivalent file.
			var buf2 bytes.Buffer
			if err := mode.Save(loaded, &buf2); err != nil {
				t.Fatalf("re-save %+v: %v", mode, err)
			}
			reloaded, err := egwalker.Load(bytes.NewReader(buf2.Bytes()), "loader2")
			if err != nil {
				t.Fatalf("re-load %+v: %v", mode, err)
			}
			if reloaded.Text() != a.Text() {
				t.Fatalf("second-generation load %+v changed text", mode)
			}
		}
		// Columnar-vs-legacy batch codec differential: both encodings of
		// the full history must decode to the identical event list.
		events := a.Events()
		legacyEnc, err := egwalker.MarshalEvents(events)
		if err != nil {
			t.Fatal(err)
		}
		compactEnc, err := egwalker.MarshalEventsCompact(events)
		if err != nil {
			t.Fatal(err)
		}
		fromLegacy, err := egwalker.UnmarshalEventsAuto(legacyEnc)
		if err != nil {
			t.Fatal(err)
		}
		fromCompact, err := egwalker.UnmarshalEventsAuto(compactEnc)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fromLegacy, fromCompact) {
			t.Fatalf("codec differential: legacy and columnar decode diverge")
		}
		if !reflect.DeepEqual(fromCompact, events) {
			t.Fatalf("codec differential: columnar round-trip changed the events")
		}
		// The current version must reconstruct via the history API too.
		got, err := a.TextAt(a.Version())
		if err != nil {
			t.Fatal(err)
		}
		if got != a.Text() {
			t.Fatalf("TextAt(current) = %q, want %q", got, a.Text())
		}
		// Span-vs-unit differential: the incrementally maintained text,
		// the span-wise full replay, and the per-unit reference replay
		// must all agree, and the span stream must expand to exactly the
		// per-unit stream.
		var hist bytes.Buffer
		if err := (egwalker.SaveMode{EGW1: true}).Save(a, &hist); err != nil {
			t.Fatal(err)
		}
		dec, err := encoding.Decode(hist.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		spanText, err := core.ReplayText(dec.Log)
		if err != nil {
			t.Fatal(err)
		}
		unitText, err := core.ReplayTextUnitRef(dec.Log)
		if err != nil {
			t.Fatal(err)
		}
		if spanText != a.Text() || unitText != a.Text() {
			t.Fatalf("replay differential: doc %q, span %q, unit %q", a.Text(), spanText, unitText)
		}
		spanStream, err := core.UnitStream(dec.Log, core.TransformAll)
		if err != nil {
			t.Fatal(err)
		}
		unitStream, err := core.UnitStream(dec.Log, core.TransformAllUnitRef)
		if err != nil {
			t.Fatal(err)
		}
		if at := core.DiffUnitStreams(spanStream, unitStream); at >= 0 {
			t.Fatalf("span stream diverges from per-unit reference at unit op %d", at)
		}
	})
}
