// Package colenc implements the compact columnar encoding of event
// batches — the repo's answer to the paper's "Smaller" claim (§3.8 and
// the Table 2 / Fig 11 file-size experiments).
//
// Where internal/encoding serialises a whole *oplog.Log (it needs the
// log's internal structure and is only usable for full documents),
// colenc serialises the wire form: an arbitrary causally ordered batch
// of events. The same frame therefore serves every byte path in the
// system — full document files (Doc.Save), store snapshots, write-ahead
// -log delta blocks, and netsync snapshot/catch-up frames.
//
// The format is column-oriented and run-length encoded, exploiting the
// shape of real editing histories:
//
//   - agents column: a name table plus (agent, seqStart, len) runs —
//     long stretches of events by one agent cost a few bytes;
//   - ops column: (kind, len, startPos) runs — a typed word or a held
//     backspace is one entry;
//   - parents column: only the events whose parents differ from the
//     default "the immediately preceding event in the batch";
//   - content column: the inserted characters as one contiguous UTF-8
//     string (optionally DEFLATE-compressed);
//   - doc column (optional): the cached final document text.
//
// docs/FORMAT.md is the byte-level specification; testdata/colenc/ at
// the repo root holds golden files that must decode by hand from the
// spec alone.
package colenc

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"unicode/utf8"
)

// Magic identifies a colenc frame. The byte sequence never collides
// with the legacy whole-document format ("EGW1") and is vanishingly
// unlikely as a legacy MarshalEvents prefix (it would require a batch
// declaring exactly 69 agents whose first name is 71 bytes long and
// starts with '2').
var Magic = [4]byte{'E', 'G', 'C', '2'}

// Flag bits in the header. Decoders reject frames with unknown bits
// set, so future extensions cannot be silently misread.
const (
	// FlagCachedDoc marks the presence of the optional final-document
	// column.
	FlagCachedDoc = 1 << 0
	// FlagCompressed marks the content column as DEFLATE-compressed.
	FlagCompressed = 1 << 1

	knownFlags = FlagCachedDoc | FlagCompressed
)

// Limits on decoded values, shared with the legacy batch codec so a
// legal document can never produce a frame its receiver rejects.
const (
	maxAgentName = 4096 // bytes per agent name
	maxParents   = 1024 // parents per event
)

// ErrBadMagic reports input that is not a colenc frame at all.
var ErrBadMagic = errors.New("colenc: bad magic")

// ErrChecksum reports a frame whose CRC32-C does not match its body:
// the bytes were damaged after encoding.
var ErrChecksum = errors.New("colenc: checksum mismatch")

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ID identifies an event globally, mirroring egwalker.EventID (the two
// packages cannot share the type: colenc is imported by the root
// package).
type ID struct {
	Agent string
	Seq   int
}

// Event is one editing event in wire form, mirroring egwalker.Event.
type Event struct {
	ID      ID
	Parents []ID
	Insert  bool
	Pos     int
	Content rune // inserts only
}

// Options control encoding.
type Options struct {
	// Compress applies DEFLATE to the content column. (The paper uses
	// LZ4; the role — cheap optional content compression — is the
	// same.) Best-effort: content at or past the decoder's inflation
	// cap (16 MiB) is written uncompressed so the frame stays readable.
	Compress bool
}

// Decoded is the result of decoding a frame.
type Decoded struct {
	Events []Event
	// Doc is the cached final document text, if the frame embeds one.
	Doc string
	// HasDoc reports whether the doc column was present.
	HasDoc bool
}

// Sniff reports whether data begins with a colenc frame's magic.
func Sniff(data []byte) bool {
	return len(data) >= len(Magic) && bytes.Equal(data[:len(Magic)], Magic[:])
}

// op run tags (ops column).
const (
	tagInsert     = 0 // positions ascend by 1 within the run
	tagDeleteBack = 1 // backspace: positions descend by 1
	tagDeleteFwd  = 2 // forward delete: every position identical
)

func putUvarint(buf []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	return append(buf, tmp[:n]...)
}

// Encode serialises a causally ordered batch (parents precede children
// within the batch, as Doc.Events / Doc.EventsSince produce).
func Encode(events []Event, opts Options) ([]byte, error) {
	return encode(events, "", false, opts)
}

// EncodeDoc is Encode plus the optional cached-document column: doc
// must be the document text at the batch's final version. Decoders get
// it back verbatim and can skip replay entirely.
func EncodeDoc(events []Event, doc string, opts Options) ([]byte, error) {
	return encode(events, doc, true, opts)
}

func encode(events []Event, doc string, withDoc bool, opts Options) ([]byte, error) {
	n := len(events)

	// Agents column: name table + (agent, seqStart, len) runs.
	var agents []byte
	agentIdx := map[string]int{}
	var names []string
	intern := func(a string) (int, error) {
		if i, ok := agentIdx[a]; ok {
			return i, nil
		}
		if len(a) > maxAgentName {
			return 0, fmt.Errorf("colenc: agent name too long (%d bytes)", len(a))
		}
		agentIdx[a] = len(names)
		names = append(names, a)
		return len(names) - 1, nil
	}
	type agentRun struct{ agent, seq, n int }
	var aruns []agentRun
	for _, ev := range events {
		ai, err := intern(ev.ID.Agent)
		if err != nil {
			return nil, err
		}
		if ev.ID.Seq < 0 {
			return nil, fmt.Errorf("colenc: negative seq in event %s/%d", ev.ID.Agent, ev.ID.Seq)
		}
		if k := len(aruns); k > 0 && aruns[k-1].agent == ai && aruns[k-1].seq+aruns[k-1].n == ev.ID.Seq {
			aruns[k-1].n++
		} else {
			aruns = append(aruns, agentRun{ai, ev.ID.Seq, 1})
		}
		// Parent names must enter the table too (external parents are
		// encoded as table references).
		for _, p := range ev.Parents {
			if _, err := intern(p.Agent); err != nil {
				return nil, err
			}
		}
	}
	agents = putUvarint(agents, uint64(len(names)))
	for _, name := range names {
		agents = putUvarint(agents, uint64(len(name)))
		agents = append(agents, name...)
	}
	agents = putUvarint(agents, uint64(len(aruns)))
	for _, r := range aruns {
		agents = putUvarint(agents, uint64(r.agent))
		agents = putUvarint(agents, uint64(r.seq))
		agents = putUvarint(agents, uint64(r.n))
	}

	// Ops column: (tag, len, startPos) runs; content column: the
	// inserted runes of every insert run, concatenated.
	var ops, content []byte
	for i := 0; i < n; {
		ev := events[i]
		if ev.Pos < 0 {
			return nil, fmt.Errorf("colenc: negative position in event %s/%d", ev.ID.Agent, ev.ID.Seq)
		}
		j := i + 1
		if ev.Insert {
			if !utf8.ValidRune(ev.Content) {
				return nil, fmt.Errorf("colenc: invalid rune %#x in event %s/%d", ev.Content, ev.ID.Agent, ev.ID.Seq)
			}
			for j < n && events[j].Insert && events[j].Pos == ev.Pos+(j-i) && utf8.ValidRune(events[j].Content) {
				j++
			}
			ops = putUvarint(ops, tagInsert)
			ops = putUvarint(ops, uint64(j-i))
			ops = putUvarint(ops, uint64(ev.Pos))
			for k := i; k < j; k++ {
				content = utf8.AppendRune(content, events[k].Content)
			}
		} else {
			// Prefer the longer of the two delete-run shapes starting
			// here; a lone delete encodes as a forward run of one.
			back, fwd := i+1, i+1
			for back < n && !events[back].Insert && events[back].Pos == ev.Pos-(back-i) {
				back++
			}
			for fwd < n && !events[fwd].Insert && events[fwd].Pos == ev.Pos {
				fwd++
			}
			tag := uint64(tagDeleteFwd)
			j = fwd
			if back > fwd {
				tag = tagDeleteBack
				j = back
			}
			ops = putUvarint(ops, tag)
			ops = putUvarint(ops, uint64(j-i))
			ops = putUvarint(ops, uint64(ev.Pos))
		}
		i = j
	}

	// Parents column: only events whose parents are not simply the
	// previous event in the batch. Event 0 has no previous event, so it
	// always appears. Entry indexes are delta-encoded (they are
	// strictly increasing).
	var parents []byte
	nExc := 0
	prevIdx := 0
	for i, ev := range events {
		if i > 0 && len(ev.Parents) == 1 && ev.Parents[0] == events[i-1].ID {
			continue
		}
		if len(ev.Parents) > maxParents {
			return nil, fmt.Errorf("colenc: event %s/%d has %d parents", ev.ID.Agent, ev.ID.Seq, len(ev.Parents))
		}
		if nExc == 0 {
			parents = putUvarint(parents, uint64(i))
		} else {
			parents = putUvarint(parents, uint64(i-prevIdx))
		}
		prevIdx = i
		nExc++
		parents = putUvarint(parents, uint64(len(ev.Parents)))
		for _, p := range ev.Parents {
			// In-batch parents compress to a back-reference; the scan is
			// bounded because in real graphs a non-linear parent is
			// almost always recent. Fall back to the (agent, seq) form
			// beyond the window — both decode identically.
			enc := false
			for back := 1; back <= i && back <= maxBackrefScan; back++ {
				if events[i-back].ID == p {
					parents = putUvarint(parents, uint64(back)<<1)
					enc = true
					break
				}
			}
			if !enc {
				parents = putUvarint(parents, uint64(agentIdx[p.Agent])<<1|1)
				parents = putUvarint(parents, uint64(p.Seq))
			}
		}
	}
	var parentsHdr []byte
	parentsHdr = putUvarint(parentsHdr, uint64(nExc))
	parents = append(parentsHdr, parents...)

	flags := byte(0)
	if withDoc {
		flags |= FlagCachedDoc
	}
	// The decoder bounds inflation at maxDecompressed (decompression-
	// bomb defense), so content at or past that size must be written
	// uncompressed — otherwise Encode would produce a frame its own
	// Decode rejects, turning e.g. a store snapshot of a huge document
	// into an unreadable file. Compression is best-effort.
	if opts.Compress && len(content) >= maxDecompressed {
		opts.Compress = false
	}
	if opts.Compress {
		flags |= FlagCompressed
		var zbuf bytes.Buffer
		zw, err := flate.NewWriter(&zbuf, flate.BestSpeed)
		if err != nil {
			return nil, err
		}
		if _, err := zw.Write(content); err != nil {
			return nil, err
		}
		if err := zw.Close(); err != nil {
			return nil, err
		}
		content = zbuf.Bytes()
	}

	// Assemble body: count, then each column length-prefixed.
	var body []byte
	body = putUvarint(body, uint64(n))
	for _, col := range [][]byte{agents, ops, parents, content} {
		body = putUvarint(body, uint64(len(col)))
		body = append(body, col...)
	}
	if withDoc {
		body = putUvarint(body, uint64(len(doc)))
		body = append(body, doc...)
	}

	out := make([]byte, 0, len(Magic)+5+len(body))
	out = append(out, Magic[:]...)
	out = append(out, flags)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.Checksum(body, crcTable))
	out = append(out, crc[:]...)
	return append(out, body...), nil
}

// maxBackrefScan bounds the linear search for the in-batch form of a
// non-linear parent. Concurrency in editing histories is shallow; a
// parent further back still encodes, just in (agent, seq) form.
const maxBackrefScan = 64

// reader consumes varints and byte runs from a slice, tracking errors.
type reader struct {
	buf []byte
	off int
}

func (r *reader) ReadByte() (byte, error) {
	if r.off >= len(r.buf) {
		return 0, io.ErrUnexpectedEOF
	}
	b := r.buf[r.off]
	r.off++
	return b, nil
}

func (r *reader) uvarint() (uint64, error) {
	return binary.ReadUvarint(r)
}

// count reads a uvarint that must fit in an int and be ≤ limit.
func (r *reader) count(limit int, what string) (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(limit) {
		return 0, fmt.Errorf("colenc: %s %d exceeds limit %d", what, v, limit)
	}
	return int(v), nil
}

func (r *reader) bytes(n int) ([]byte, error) {
	if n < 0 || n > len(r.buf)-r.off {
		return nil, io.ErrUnexpectedEOF
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b, nil
}

func (r *reader) done() bool { return r.off == len(r.buf) }

// Decode parses a colenc frame. It validates everything — magic,
// unknown flags, checksum, column framing, run totals, reference
// ranges — and returns a clean error on any malformed input; it never
// panics, and allocations grow only as runs actually decode.
//
// Run-length decoding has inherent expansion (a long held-backspace run
// is a handful of bytes describing many events), so a frame from an
// untrusted source can legitimately be small and decode to many events.
// Callers on bounded paths — network frames, WAL blocks, fuzzing —
// should use DecodeLimit with the batch cap their writers enforce.
func Decode(data []byte) (*Decoded, error) {
	return DecodeLimit(data, math.MaxInt32)
}

// DecodeLimit is Decode with an upper bound on the decoded event count;
// frames declaring more events are rejected before any proportional
// work happens.
func DecodeLimit(data []byte, maxEvents int) (*Decoded, error) {
	r, flags, err := openFrame(data)
	if err != nil {
		return nil, err
	}
	body := r.buf
	// One run (a few bytes) may cover up to maxRunLen events, so the
	// body length times that factor bounds any honest count.
	limit := maxEvents
	if cap := len(body) * maxRunLen; cap < limit {
		limit = cap
	}
	n, err := r.count(limit, "event count")
	if err != nil {
		return nil, err
	}
	readCol := func() (*reader, error) {
		ln, err := r.count(len(body), "column length")
		if err != nil {
			return nil, err
		}
		b, err := r.bytes(ln)
		if err != nil {
			return nil, err
		}
		return &reader{buf: b}, nil
	}
	agentsCol, err := readCol()
	if err != nil {
		return nil, err
	}
	opsCol, err := readCol()
	if err != nil {
		return nil, err
	}
	parentsCol, err := readCol()
	if err != nil {
		return nil, err
	}
	contentCol, err := readCol()
	if err != nil {
		return nil, err
	}
	var doc string
	hasDoc := flags&FlagCachedDoc != 0
	if hasDoc {
		docCol, err := readCol()
		if err != nil {
			return nil, err
		}
		doc = string(docCol.buf)
	}
	if !r.done() {
		return nil, fmt.Errorf("colenc: %d trailing bytes after last column", len(body)-r.off)
	}

	ids, err := decodeAgents(agentsCol, n)
	if err != nil {
		return nil, err
	}
	events, err := decodeOps(opsCol, contentCol, n, flags&FlagCompressed != 0)
	if err != nil {
		return nil, err
	}
	for i := range events {
		events[i].ID = ids.at(i)
	}
	if err := decodeParents(parentsCol, events, ids); err != nil {
		return nil, err
	}
	return &Decoded{Events: events, Doc: doc, HasDoc: hasDoc}, nil
}

// maxRunLen is the allocation-defense multiplier: one run (≥ 3 encoded
// bytes) may legitimately cover many events, but letting the event
// count exceed body-bytes × maxRunLen would allow a tiny frame to
// declare an absurd count. 2^16 matches the largest batch bounded
// writers produce (the count netsync.MarshalChunksCompact cuts at).
const maxRunLen = 1 << 16

// agentTable resolves event index → ID without materialising n IDs up
// front.
type agentTable struct {
	names []string
	runs  []struct{ agent, seq, n int }
	// cursor state for sequential at() calls
	run, off int
}

func (t *agentTable) at(i int) ID {
	// at is called with i strictly increasing from 0.
	for t.off+t.runs[t.run].n <= i {
		t.off += t.runs[t.run].n
		t.run++
	}
	r := t.runs[t.run]
	return ID{Agent: t.names[r.agent], Seq: r.seq + (i - t.off)}
}

func decodeAgents(r *reader, n int) (*agentTable, error) {
	nNames, err := r.count(len(r.buf), "agent name count")
	if err != nil {
		return nil, err
	}
	t := &agentTable{names: make([]string, 0, nNames)}
	for i := 0; i < nNames; i++ {
		ln, err := r.count(maxAgentName, "agent name length")
		if err != nil {
			return nil, err
		}
		b, err := r.bytes(ln)
		if err != nil {
			return nil, err
		}
		t.names = append(t.names, string(b))
	}
	nRuns, err := r.count(len(r.buf)+1, "agent run count")
	if err != nil {
		return nil, err
	}
	total := 0
	for i := 0; i < nRuns; i++ {
		ai, err := r.count(math.MaxInt32, "agent index")
		if err != nil {
			return nil, err
		}
		if ai >= len(t.names) {
			return nil, fmt.Errorf("colenc: agent index %d out of range (%d names)", ai, len(t.names))
		}
		seq, err := r.count(math.MaxInt32, "agent seq")
		if err != nil {
			return nil, err
		}
		ln, err := r.count(n-total, "agent run length")
		if err != nil {
			return nil, err
		}
		if ln == 0 {
			return nil, fmt.Errorf("colenc: empty agent run")
		}
		if seq+ln > math.MaxInt32 {
			return nil, fmt.Errorf("colenc: agent seq overflow")
		}
		t.runs = append(t.runs, struct{ agent, seq, n int }{ai, seq, ln})
		total += ln
	}
	if total != n {
		return nil, fmt.Errorf("colenc: agent runs cover %d events, want %d", total, n)
	}
	if !r.done() {
		return nil, fmt.Errorf("colenc: trailing bytes in agents column")
	}
	return t, nil
}

func decodeOps(r, content *reader, n int, compressed bool) ([]Event, error) {
	if compressed {
		raw, err := io.ReadAll(io.LimitReader(flate.NewReader(bytes.NewReader(content.buf)), maxDecompressed))
		if err != nil {
			return nil, fmt.Errorf("colenc: decompress content: %w", err)
		}
		if len(raw) >= maxDecompressed {
			return nil, fmt.Errorf("colenc: decompressed content exceeds %d bytes", maxDecompressed)
		}
		content = &reader{buf: raw}
	}
	// Grow lazily: a run-length format legitimately describes many
	// events in few bytes, so trust the count only as runs materialise.
	events := make([]Event, 0, minInt(n, 4096))
	for len(events) < n {
		tag, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		runLen, err := r.count(n-len(events), "op run length")
		if err != nil {
			return nil, err
		}
		if runLen == 0 {
			return nil, fmt.Errorf("colenc: empty op run")
		}
		pos, err := r.count(math.MaxInt32, "op position")
		if err != nil {
			return nil, err
		}
		switch tag {
		case tagInsert:
			if pos+runLen > math.MaxInt32 {
				return nil, fmt.Errorf("colenc: insert run position overflow")
			}
			for i := 0; i < runLen; i++ {
				ru, size := utf8.DecodeRune(content.buf[content.off:])
				if size == 0 {
					return nil, fmt.Errorf("colenc: content column exhausted")
				}
				if ru == utf8.RuneError && size == 1 {
					return nil, fmt.Errorf("colenc: invalid UTF-8 in content column")
				}
				content.off += size
				events = append(events, Event{Insert: true, Pos: pos + i, Content: ru})
			}
		case tagDeleteBack:
			if runLen-1 > pos {
				return nil, fmt.Errorf("colenc: backspace run of %d underflows position %d", runLen, pos)
			}
			for i := 0; i < runLen; i++ {
				events = append(events, Event{Pos: pos - i})
			}
		case tagDeleteFwd:
			for i := 0; i < runLen; i++ {
				events = append(events, Event{Pos: pos})
			}
		default:
			return nil, fmt.Errorf("colenc: bad op tag %d", tag)
		}
	}
	if !r.done() {
		return nil, fmt.Errorf("colenc: trailing bytes in ops column")
	}
	if !content.done() {
		return nil, fmt.Errorf("colenc: trailing bytes in content column")
	}
	return events, nil
}

// maxDecompressed bounds the inflated content column against
// decompression bombs; it matches the frame/delta payload cap.
const maxDecompressed = 16 << 20

func decodeParents(r *reader, events []Event, ids *agentTable) error {
	n := len(events)
	nExc, err := r.count(n, "parent entry count")
	if err != nil {
		return err
	}
	if n > 0 && nExc == 0 {
		return fmt.Errorf("colenc: missing parents entry for event 0")
	}
	// Events between explicit entries take the default parent list: the
	// immediately preceding event. Entry indexes are strictly
	// increasing, so one sweep interleaves defaults and entries. IDs
	// are already in place (decode order: agents, ops, IDs, parents).
	fillDefaults := func(from, to int) {
		for i := from; i < to; i++ {
			events[i].Parents = []ID{events[i-1].ID}
		}
	}
	next := 0 // next event index without parents yet
	idx := 0
	for e := 0; e < nExc; e++ {
		step, err := r.count(n, "parent entry index")
		if err != nil {
			return err
		}
		if e == 0 {
			if step != 0 {
				return fmt.Errorf("colenc: first parents entry at %d, want 0", step)
			}
			idx = 0
		} else {
			if step == 0 {
				return fmt.Errorf("colenc: non-increasing parents entry index")
			}
			idx += step
		}
		if idx >= n {
			return fmt.Errorf("colenc: parents entry index %d out of range", idx)
		}
		fillDefaults(next, idx)
		next = idx + 1
		nPar, err := r.count(maxParents, "parent count")
		if err != nil {
			return err
		}
		for p := 0; p < nPar; p++ {
			v, err := r.uvarint()
			if err != nil {
				return err
			}
			if v&1 == 0 {
				back := v >> 1
				if back == 0 || back > uint64(idx) {
					return fmt.Errorf("colenc: bad parent back-reference %d at event %d", back, idx)
				}
				events[idx].Parents = append(events[idx].Parents, events[idx-int(back)].ID)
			} else {
				ai := v >> 1
				if ai >= uint64(len(ids.names)) {
					return fmt.Errorf("colenc: parent agent index %d out of range", ai)
				}
				seq, err := r.count(math.MaxInt32, "parent seq")
				if err != nil {
					return err
				}
				events[idx].Parents = append(events[idx].Parents, ID{Agent: ids.names[ai], Seq: seq})
			}
		}
	}
	if !r.done() {
		return fmt.Errorf("colenc: trailing bytes in parents column")
	}
	fillDefaults(next, n)
	return nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
