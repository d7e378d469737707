package netsync

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"strings"
	"testing"

	"egwalker"
)

// rawFrame builds one frame by hand, for inputs WriteHello refuses to
// produce.
func rawFrame(t testing.TB, typ byte, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeFrame(&buf, typ, payload); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// retiredHello is a hello of a generation or flag bit this build no
// longer accepts, as the clients that spoke it wrote it.
type retiredHello struct {
	name  string
	frame []byte
}

// retiredHellos returns one frame per retired hello generation and
// bit: the first-generation doc hello (frame 0x04) with and without a
// frontier, the symmetric Sync frontier hello (frame 0x01), and v2
// hellos lacking the compact bit or setting the retired resume (0x02)
// and redirect (0x04) bits.
func retiredHellos(t testing.TB) []retiredHello {
	t.Helper()
	// A frontier {alice: 41} in the retired version encoding: head
	// count, then per head a length-prefixed agent name and a seq.
	frontier := []byte{1, 5, 'a', 'l', 'i', 'c', 'e', 41}
	docID := func(flags ...uint64) []byte {
		var b []byte
		for _, f := range flags {
			b = binary.AppendUvarint(b, f)
		}
		return append(binary.AppendUvarint(b, 1), 'd')
	}
	const resume, redirect = 0x02, 0x04
	return []retiredHello{
		{"legacy plain", rawFrame(t, 0x04, docID())},
		{"legacy resume", rawFrame(t, 0x04, append(docID(), frontier...))},
		{"sync frontier", rawFrame(t, 0x01, append(frontier, helloCompact))},
		{"v2 plain", rawFrame(t, msgDocHello, docID(0))},
		{"v2 resume", rawFrame(t, msgDocHello, append(docID(resume), frontier...))},
		{"v2 resume compact", rawFrame(t, msgDocHello, append(docID(resume|helloCompact), frontier...))},
		{"v2 redirect", rawFrame(t, msgDocHello, docID(redirect|helloCompact))},
	}
}

// helloEqual compares the fields a hello carries on the wire. A nil
// and an empty summary differ: only the former omits the summary.
func helloEqual(a, b Hello) bool {
	return a.DocID == b.DocID && a.Compact == b.Compact && a.Replica == b.Replica &&
		(a.Summary == nil) == (b.Summary == nil) &&
		reflect.DeepEqual(map[string][]egwalker.SeqRange(a.Summary), map[string][]egwalker.SeqRange(b.Summary))
}

func TestDocHelloRoundTrip(t *testing.T) {
	for _, id := range []string{"a", "notes/alpha", strings.Repeat("x", maxDocID)} {
		var buf bytes.Buffer
		if err := WriteHello(&buf, Hello{DocID: id, Compact: true}); err != nil {
			t.Fatalf("WriteHello(%q): %v", id, err)
		}
		got, err := ReadHello(&buf)
		if err != nil || got.DocID != id {
			t.Fatalf("ReadHello = %q, %v; want %q", got.DocID, err, id)
		}
	}
}

// TestDocHelloResumeRoundTrip: the hello NewClientForDoc sends carries
// the doc's exact version summary — empty, but present, for a cold
// replica — so the host can answer with exactly what it lacks.
func TestDocHelloResumeRoundTrip(t *testing.T) {
	cold := egwalker.NewDoc("cold")
	warm := egwalker.NewDoc("warm")
	if err := warm.Insert(0, "held before reconnecting"); err != nil {
		t.Fatal(err)
	}
	for _, doc := range []*egwalker.Doc{cold, warm} {
		var buf bytes.Buffer
		if _, err := NewClientForDoc(doc, &buf, "notes/alpha"); err != nil {
			t.Fatal(err)
		}
		got, err := ReadHello(&buf)
		if err != nil {
			t.Fatal(err)
		}
		want := Hello{DocID: "notes/alpha", Compact: true, Summary: doc.Summary()}
		if !helloEqual(got, want) {
			t.Fatalf("hello: got %+v, want %+v", got, want)
		}
	}
}

// TestDocHelloResumeRejectsGarbageVersion: a resume summary that does
// not decode must fail the hello, not be silently dropped — and a
// hostile agent count must fail at the truncation checks without a
// proportional allocation (this is the unauthenticated first frame of
// a server connection).
func TestDocHelloResumeRejectsGarbageVersion(t *testing.T) {
	for _, agentCount := range []uint64{1 << 50, 4 << 20} {
		payload := binary.AppendUvarint(nil, helloCompact|helloSummary)
		payload = binary.AppendUvarint(payload, 3)
		payload = append(payload, "doc"...)
		payload = binary.AppendUvarint(payload, agentCount)
		// Enough padding that a count-trusting decoder would allocate
		// millions of entries before hitting the end.
		payload = append(payload, make([]byte, 4096)...)
		_, err := ReadHello(bytes.NewReader(rawFrame(t, msgDocHello, payload)))
		if err == nil || !strings.Contains(err.Error(), "bad version summary") {
			t.Fatalf("hostile agent count %d: err = %v, want bad-summary error", agentCount, err)
		}
	}
}

func TestDocHelloRejectsBadIDs(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteHello(&buf, Hello{DocID: "", Compact: true}); err == nil {
		t.Error("empty doc ID accepted")
	}
	if err := WriteHello(&buf, Hello{DocID: strings.Repeat("x", maxDocID+1), Compact: true}); err == nil {
		t.Error("oversized doc ID accepted")
	}
	// A hello frame whose uvarint claims a huge ID length must be
	// rejected by the length check, not trusted.
	payload := binary.AppendUvarint(nil, helloCompact)
	payload = binary.AppendUvarint(payload, 1<<40)
	payload = append(payload, "short"...)
	if _, err := ReadHello(bytes.NewReader(rawFrame(t, msgDocHello, payload))); err == nil {
		t.Error("hostile doc-ID length accepted")
	}
	// Wrong first frame type.
	if _, err := ReadHello(bytes.NewReader(rawFrame(t, msgEvents, nil))); err == nil {
		t.Error("non-hello first frame accepted")
	}
}

// TestReadHelloBothGenerations: of the two doc hello generations only
// the second parses; the first (frame 0x04, which could carry neither
// the compact bit nor a summary) is refused as not a doc hello, and
// WriteHello cannot produce a second-generation hello without the
// compact bit either.
func TestReadHelloBothGenerations(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteHello(&buf, Hello{DocID: "d", Compact: true}); err != nil {
		t.Fatal(err)
	}
	v2 := buf.Bytes()
	if v2[4] != msgDocHello {
		t.Fatalf("WriteHello wrote frame type %#x, want %#x", v2[4], msgDocHello)
	}
	v1 := rawFrame(t, 0x04, v2[6:]) // the same doc ID, no flags
	if h, err := ReadHello(bytes.NewReader(v2)); err != nil || h.DocID != "d" {
		t.Fatalf("second generation: %+v, %v", h, err)
	}
	_, err := ReadHello(bytes.NewReader(v1))
	if err == nil || !strings.Contains(err.Error(), "expected doc hello") {
		t.Fatalf("first generation: err = %v, want expected-doc-hello error", err)
	}
	if err := WriteHello(&bytes.Buffer{}, Hello{DocID: "d"}); err == nil {
		t.Error("WriteHello wrote a hello without the compact bit")
	}
}

// TestReadHelloTruncated: a hello cut off at any byte must error (short
// header, short payload, payload cut mid-doc-ID or mid-summary), never
// panic or succeed.
func TestReadHelloTruncated(t *testing.T) {
	var full bytes.Buffer
	h := Hello{
		DocID:   "notes/alpha",
		Compact: true,
		Summary: egwalker.VersionSummary{"alice": {{Start: 0, End: 41}}, "bob": {{Start: 0, End: 3}}},
	}
	if err := WriteHello(&full, h); err != nil {
		t.Fatal(err)
	}
	raw := full.Bytes()
	for cut := 0; cut < len(raw); cut++ {
		if _, err := ReadHello(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("hello truncated to %d/%d bytes accepted", cut, len(raw))
		}
	}
	// A frame whose header promises more payload than follows fails on
	// the short read, not with a partial parse.
	hdr := append([]byte(nil), raw[:5]...)
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(raw)))
	if _, err := ReadHello(bytes.NewReader(append(hdr, raw[5:]...))); err == nil {
		t.Fatal("hello with inflated length header accepted")
	}
}

// TestReadHelloOversized: a hostile length header past the frame cap is
// refused before any payload allocation, and an in-bounds frame whose
// doc-ID length field is hostile is refused by the doc-ID cap.
func TestReadHelloOversized(t *testing.T) {
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], maxFrame+1)
	hdr[4] = msgDocHello
	_, err := ReadHello(bytes.NewReader(hdr[:]))
	if err == nil || !strings.Contains(err.Error(), "oversized") {
		t.Fatalf("over-cap hello frame: err = %v, want oversized-frame error", err)
	}
	for _, idLen := range []uint64{0, maxDocID + 1, 1 << 40} {
		payload := binary.AppendUvarint(nil, helloCompact)
		payload = binary.AppendUvarint(payload, idLen)
		payload = append(payload, make([]byte, 64)...)
		if _, err := ReadHello(bytes.NewReader(rawFrame(t, msgDocHello, payload))); err == nil {
			t.Fatalf("doc ID length %d accepted", idLen)
		}
	}
}

// TestReadHelloUnknownVersion: frames that are not a doc hello, and
// hellos carrying flag bits this build does not know, must be rejected
// — unknown flags may change the meaning of the rest of the payload,
// so ignoring them is not an option.
func TestReadHelloUnknownVersion(t *testing.T) {
	for _, typ := range []byte{msgEvents, msgDone, 0x01, 0x04, msgRedirect, msgSummary, 0x00, 0x7f} {
		_, err := ReadHello(bytes.NewReader(rawFrame(t, typ, []byte("x"))))
		if err == nil || !strings.Contains(err.Error(), "expected doc hello") {
			t.Fatalf("frame type %#x: err = %v, want expected-doc-hello error", typ, err)
		}
	}
	payload := binary.AppendUvarint(nil, uint64(knownHelloFlags)<<1) // one bit past every known flag
	payload = binary.AppendUvarint(payload, 3)
	payload = append(payload, "doc"...)
	_, err := ReadHello(bytes.NewReader(rawFrame(t, msgDocHello, payload)))
	if err == nil || !strings.Contains(err.Error(), "unknown doc hello flags") {
		t.Fatalf("unknown flag bits: err = %v, want unknown-flags error", err)
	}
}

// TestReadHelloGarbageResumeVersion: a hello rejects a summary that
// does not decode, including hostile range counts that must fail the
// truncation checks without allocating, and trailing bytes after the
// doc ID or the summary.
func TestReadHelloGarbageResumeVersion(t *testing.T) {
	head := binary.AppendUvarint(nil, helloCompact|helloSummary)
	head = binary.AppendUvarint(head, 3)
	head = append(head, "doc"...)
	hostile := append(append([]byte(nil), head...), 1, 1, 'a')
	hostile = binary.AppendUvarint(hostile, 1<<50) // range count
	hostile = append(hostile, make([]byte, 1024)...)
	trailing := append(append([]byte(nil), head...), MarshalVersionSummary(egwalker.VersionSummary{})...)
	trailing = append(trailing, 0)
	noSummary := binary.AppendUvarint(nil, helloCompact)
	noSummary = binary.AppendUvarint(noSummary, 3)
	noSummary = append(noSummary, "doc"...)
	noSummary = append(noSummary, 0)
	for name, payload := range map[string][]byte{"hostile range count": hostile, "trailing after summary": trailing} {
		_, err := ReadHello(bytes.NewReader(rawFrame(t, msgDocHello, payload)))
		if err == nil || !strings.Contains(err.Error(), "bad version summary") {
			t.Fatalf("%s: err = %v, want bad-summary error", name, err)
		}
	}
	if _, err := ReadHello(bytes.NewReader(rawFrame(t, msgDocHello, noSummary))); err == nil {
		t.Fatal("trailing bytes after the doc ID accepted")
	}
}
