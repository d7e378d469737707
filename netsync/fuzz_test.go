package netsync

import (
	"bytes"
	"encoding/binary"
	"testing"

	"egwalker"
)

// FuzzUnmarshal: Unmarshal must never panic, and events it accepts must
// be safely appliable (Apply may buffer or error, never crash).
func FuzzUnmarshal(f *testing.F) {
	d := egwalker.NewDoc("seed")
	if err := d.Insert(0, "seed corpus"); err != nil {
		f.Fatal(err)
	}
	if err := d.Delete(2, 4); err != nil {
		f.Fatal(err)
	}
	good, err := egwalker.MarshalEventsCompact(d.Events())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	legacy, err := egwalker.MarshalEvents(d.Events())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(legacy)
	f.Add([]byte{})
	f.Add([]byte{1, 1, 'a', 1})

	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := Unmarshal(data)
		if err != nil {
			return
		}
		doc := egwalker.NewDoc("fuzz")
		_, _ = doc.Apply(events)
	})
}

// FuzzReadHello: the doc hello is the unauthenticated first frame of
// every server connection, so ReadHello must never panic on hostile
// bytes, must refuse every retired hello generation and bit, and any
// hello it accepts must survive a WriteHello → ReadHello round trip
// with an equal parse.
func FuzzReadHello(f *testing.F) {
	seed := func(h Hello) []byte {
		var buf bytes.Buffer
		if err := WriteHello(&buf, h); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	sum := egwalker.VersionSummary{
		"alice": {{Start: 0, End: 42}},
		"bob":   {{Start: 0, End: 2}, {Start: 3, End: 4}},
	}
	f.Add(seed(Hello{DocID: "plain", Compact: true}))
	f.Add(seed(Hello{DocID: "cold", Compact: true, Summary: egwalker.VersionSummary{}}))
	f.Add(seed(Hello{DocID: "sum", Compact: true, Summary: sum}))
	f.Add(seed(Hello{DocID: "sum/replica", Compact: true, Replica: true, Summary: sum}))
	// Truncated hello.
	full := seed(Hello{DocID: "cut", Compact: true, Summary: sum})
	f.Add(full[:len(full)-2])
	// Unknown frame type, unknown flag bits, hostile doc-ID length, and
	// a length header past the frame cap.
	f.Add([]byte{0, 0, 0, 1, 0x7f, 0x00})
	badFlags := binary.AppendUvarint(nil, uint64(knownHelloFlags)<<1)
	badFlags = binary.AppendUvarint(badFlags, 1)
	badFlags = append(badFlags, 'd')
	f.Add(rawFrame(f, msgDocHello, badFlags))
	f.Add(rawFrame(f, msgDocHello, binary.AppendUvarint([]byte{helloCompact}, 1<<40)))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, msgDocHello})
	retired := retiredHellos(f)
	for _, r := range retired {
		f.Add(r.frame)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := ReadHello(bytes.NewReader(data))
		for _, r := range retired {
			if err == nil && bytes.Equal(data, r.frame) {
				t.Fatalf("retired %s hello accepted as %+v", r.name, h)
			}
		}
		if err != nil {
			return
		}
		if h.DocID == "" || len(h.DocID) > maxDocID || !h.Compact {
			t.Fatalf("accepted hello %+v", h)
		}
		var buf bytes.Buffer
		if err := WriteHello(&buf, h); err != nil {
			t.Fatalf("WriteHello on accepted hello: %v", err)
		}
		h2, err := ReadHello(&buf)
		if err != nil {
			t.Fatalf("re-read written hello: %v", err)
		}
		if !helloEqual(h, h2) {
			t.Fatalf("round-trip drift: %+v vs %+v", h, h2)
		}
	})
}
