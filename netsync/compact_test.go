package netsync

import (
	"bytes"
	"net"
	"reflect"
	"sync"
	"testing"

	"egwalker"
	"egwalker/internal/colenc"
)

// TestDocHelloV2RoundTrip: every flag combination of the v2 hello
// reads back exactly, and every retired generation or bit — the v1
// hello, a v2 hello without the compact bit, the frontier-resume and
// redirect bits — is refused.
func TestDocHelloV2RoundTrip(t *testing.T) {
	sum := egwalker.VersionSummary{"a": {{Start: 0, End: 42}}, "b": {{Start: 0, End: 8}}}
	for _, tc := range []struct {
		name string
		h    Hello
	}{
		{"v2 compact", Hello{DocID: "d", Compact: true}},
		{"v2 compact summary", Hello{DocID: "d", Compact: true, Summary: sum}},
		{"v2 compact replica", Hello{DocID: "d", Compact: true, Replica: true, Summary: sum}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := WriteHello(&buf, tc.h); err != nil {
				t.Fatal(err)
			}
			got, err := ReadHello(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if !helloEqual(got, tc.h) {
				t.Fatalf("got %+v, want %+v", got, tc.h)
			}
		})
	}
	for _, r := range retiredHellos(t) {
		t.Run(r.name, func(t *testing.T) {
			if h, err := ReadHello(bytes.NewReader(r.frame)); err == nil {
				t.Fatalf("retired hello accepted as %+v", h)
			}
		})
	}
}

// TestDocHelloV2UnknownFlagsRejected: a hello with flag bits this
// reader does not know must fail loudly, not be half-understood.
func TestDocHelloV2UnknownFlagsRejected(t *testing.T) {
	var payload []byte
	payload = putUvarint(payload, 0x40|helloCompact)
	payload = putUvarint(payload, 1)
	payload = append(payload, 'd')
	if _, err := ReadHello(bytes.NewReader(rawFrame(t, msgDocHello, payload))); err == nil {
		t.Fatal("unknown hello flags accepted")
	}
}

// TestCompactChunkedFramesAreColumnar: every events frame carries the
// columnar magic and still decodes via the sniffing Unmarshal.
func TestCompactChunkedFramesAreColumnar(t *testing.T) {
	src := egwalker.NewDoc("a")
	if err := src.Insert(0, "compact framing test"); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writeEventsChunked(&buf, src.Events()); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := readFrame(&buf)
	if err != nil || typ != msgEvents {
		t.Fatalf("frame: typ=%#x err=%v", typ, err)
	}
	if !colenc.Sniff(payload) {
		t.Fatalf("compact frame payload lacks columnar magic: % x", payload[:8])
	}
	evs, err := Unmarshal(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(evs, src.Events()) {
		t.Fatal("compact frame did not decode to the original events")
	}
}

// TestSyncCompactConverges: two peers that share part of their
// history exchange version summaries, send each other only columnar
// events frames holding exactly what the other lacks, and converge.
func TestSyncCompactConverges(t *testing.T) {
	a := egwalker.NewDoc("a")
	if err := a.Insert(0, "shared history. "); err != nil {
		t.Fatal(err)
	}
	b := egwalker.NewDoc("b")
	if _, err := b.Apply(a.Events()); err != nil {
		t.Fatal(err)
	}
	if err := a.Insert(a.Len(), "left side"); err != nil {
		t.Fatal(err)
	}
	if err := b.Insert(0, "right side "); err != nil {
		t.Fatal(err)
	}
	aLacks, err := b.EventsSinceSummary(a.Summary())
	if err != nil {
		t.Fatal(err)
	}
	ca, cb := net.Pipe()
	tap := &frameTap{Conn: cb}
	errs := make(chan error, 2)
	go func() { errs <- Sync(a, ca) }()
	go func() { errs <- Sync(b, tap) }()
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if a.Text() != b.Text() || a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("no convergence: %q vs %q", a.Text(), b.Text())
	}
	// What b wrote: its summary, the events a lacks, DONE.
	frames := tap.frames(t)
	if len(frames) < 3 || frames[0].typ != msgSummary || frames[len(frames)-1].typ != msgDone {
		t.Fatalf("b sent frame types %v, want summary, events..., done", frameTypes(frames))
	}
	sent := 0
	for _, f := range frames[1 : len(frames)-1] {
		if f.typ != msgEvents || !colenc.Sniff(f.payload) {
			t.Fatalf("b sent a non-columnar frame %#x", f.typ)
		}
		evs, err := Unmarshal(f.payload)
		if err != nil {
			t.Fatal(err)
		}
		sent += len(evs)
	}
	if sent != len(aLacks) {
		t.Fatalf("b sent %d events, a lacked %d", sent, len(aLacks))
	}
}

type tappedFrame struct {
	typ     byte
	payload []byte
}

// frameTap records the bytes written through a connection.
type frameTap struct {
	net.Conn
	mu  sync.Mutex
	out bytes.Buffer
}

func (c *frameTap) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.out.Write(p)
	c.mu.Unlock()
	return c.Conn.Write(p)
}

func (c *frameTap) frames(t *testing.T) []tappedFrame {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	r := bytes.NewReader(c.out.Bytes())
	var out []tappedFrame
	for r.Len() > 0 {
		typ, payload, err := readFrame(r)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, tappedFrame{typ, payload})
	}
	return out
}

func frameTypes(frames []tappedFrame) []byte {
	var out []byte
	for _, f := range frames {
		out = append(out, f.typ)
	}
	return out
}
