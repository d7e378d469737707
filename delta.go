package egwalker

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// This file implements the legacy per-event batch codec
// (MarshalEvents/UnmarshalEvents) and the delta block, the checksummed
// envelope every journaled or saved-incremental batch travels in.
// Whole-document files (Save/Load) are the complement: they hold an
// entire history. Batches are the incremental unit that flows over the
// network (netsync frames) and into the durable write-ahead log
// (package store). Every writer emits the columnar payload
// (MarshalEventsCompact, docs/FORMAT.md); the per-event codec stays
// because readers must still decode blocks persisted before the
// columnar format existed, and because the tests pin the two codecs
// against each other. In it, following §3.8, parents pointing at
// events inside the batch compress to relative indexes and runs of
// events by one agent share one name-table entry; external parents
// are encoded as full (agent, seq) IDs.

// Limits on decoded batches, guarding against corrupt or hostile input
// triggering unbounded allocation. The parent cap bounds only semantic
// absurdity (a frontier of 1024 concurrent heads), not allocation —
// each parent consumes input bytes, so a hostile count self-limits —
// and is enforced identically on encode, so a legal document can never
// produce a batch its receiver rejects.
const (
	maxBatchAgentName = 4096 // bytes per agent name
	maxBatchParents   = 1024 // parents per event
)

// ErrCorruptDelta reports a delta block whose checksum does not match
// its payload: the bytes were damaged after being written (bit rot,
// torn write in the middle of a file, hostile peer).
var ErrCorruptDelta = errors.New("egwalker: corrupt delta block (checksum mismatch)")

// ErrBlockTooLarge reports an event batch that encodes past the
// per-block payload cap; split it (netsync.MarshalChunksCompact cuts a
// batch into payloads that fit).
var ErrBlockTooLarge = errors.New("egwalker: delta block too large")

// MaxDeltaPayload bounds a single delta block (and therefore a single
// WAL frame or network batch). 16 MiB of encoded events is ~1M events —
// callers stream larger histories as multiple blocks. It equals the
// netsync frame-payload cap, so any journaled block can be forwarded
// as one frame and vice versa.
const MaxDeltaPayload = 16 << 20

var crcTable = crc32.MakeTable(crc32.Castagnoli)

func minU64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

func appendUvarint(buf []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	return append(buf, tmp[:n]...)
}

// batchReader consumes varints and byte runs from a slice.
type batchReader struct {
	buf []byte
	off int
}

func (r *batchReader) ReadByte() (byte, error) {
	if r.off >= len(r.buf) {
		return 0, io.ErrUnexpectedEOF
	}
	b := r.buf[r.off]
	r.off++
	return b, nil
}

func (r *batchReader) uvarint() (uint64, error) {
	return binary.ReadUvarint(r)
}

func (r *batchReader) bytes(n int) ([]byte, error) {
	if n < 0 || r.off+n > len(r.buf) {
		return nil, io.ErrUnexpectedEOF
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b, nil
}

// MarshalEvents encodes a batch of events. The batch must be in causal
// order — parents precede children within the batch, as Doc.Events and
// Doc.EventsSince produce. Parents pointing at events in the batch are
// encoded as relative batch indexes; external parents as (agent, seq)
// IDs.
func MarshalEvents(events []Event) ([]byte, error) {
	var buf []byte
	// Agent name table.
	agentIdx := map[string]int{}
	var agents []string
	intern := func(a string) int {
		if i, ok := agentIdx[a]; ok {
			return i
		}
		agentIdx[a] = len(agents)
		agents = append(agents, a)
		return len(agents) - 1
	}
	for _, ev := range events {
		intern(ev.ID.Agent)
		for _, p := range ev.Parents {
			intern(p.Agent)
		}
	}
	buf = appendUvarint(buf, uint64(len(agents)))
	for _, a := range agents {
		if len(a) > maxBatchAgentName {
			return nil, fmt.Errorf("egwalker: agent name too long (%d bytes)", len(a))
		}
		buf = appendUvarint(buf, uint64(len(a)))
		buf = append(buf, a...)
	}
	// Index of IDs within the batch for relative parent references.
	inBatch := make(map[EventID]int, len(events))
	buf = appendUvarint(buf, uint64(len(events)))
	for i, ev := range events {
		buf = appendUvarint(buf, uint64(agentIdx[ev.ID.Agent]))
		buf = appendUvarint(buf, uint64(ev.ID.Seq))
		if len(ev.Parents) > maxBatchParents {
			return nil, fmt.Errorf("egwalker: event %v has %d parents", ev.ID, len(ev.Parents))
		}
		buf = appendUvarint(buf, uint64(len(ev.Parents)))
		for _, p := range ev.Parents {
			if j, ok := inBatch[p]; ok {
				// Relative reference: distance back within the batch,
				// tagged with a 0 byte.
				buf = appendUvarint(buf, 0)
				buf = appendUvarint(buf, uint64(i-j))
			} else {
				buf = appendUvarint(buf, 1)
				buf = appendUvarint(buf, uint64(agentIdx[p.Agent]))
				buf = appendUvarint(buf, uint64(p.Seq))
			}
		}
		if ev.Insert {
			if ev.Content > math.MaxInt32 || ev.Content < 0 {
				return nil, fmt.Errorf("egwalker: invalid rune %d in event %v", ev.Content, ev.ID)
			}
			buf = appendUvarint(buf, 0)
			buf = appendUvarint(buf, uint64(ev.Pos))
			buf = appendUvarint(buf, uint64(ev.Content))
		} else {
			buf = appendUvarint(buf, 1)
			buf = appendUvarint(buf, uint64(ev.Pos))
		}
		inBatch[ev.ID] = i
	}
	return buf, nil
}

// UnmarshalEvents decodes a batch encoded by MarshalEvents. Decoded
// sizes are validated against the payload length, so corrupt input
// cannot trigger unbounded allocation.
func UnmarshalEvents(data []byte) ([]Event, error) {
	r := &batchReader{buf: data}
	nAgents, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if nAgents > uint64(len(data)) {
		return nil, fmt.Errorf("egwalker: agent table larger than payload")
	}
	// Grow the table lazily with a modest initial capacity: a header
	// claiming a huge count costs nothing up front — each entry
	// consumes at least one payload byte, so a lie fails fast at the
	// truncation check instead of amplifying into a giant allocation.
	agents := make([]string, 0, minU64(nAgents, 1024))
	for i := uint64(0); i < nAgents; i++ {
		ln, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if ln > maxBatchAgentName {
			return nil, fmt.Errorf("egwalker: agent name too long (%d bytes)", ln)
		}
		b, err := r.bytes(int(ln))
		if err != nil {
			return nil, err
		}
		agents = append(agents, string(b))
	}
	agentAt := func(i uint64) (string, error) {
		if i >= uint64(len(agents)) {
			return "", fmt.Errorf("egwalker: agent index %d out of range", i)
		}
		return agents[i], nil
	}
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(data)) {
		return nil, fmt.Errorf("egwalker: event count larger than payload")
	}
	// Same lazy-growth defense: Event is ~10x larger than its minimum
	// 5-byte encoding, so trusting n for the allocation would let a
	// small frame demand an order of magnitude more memory than it
	// carries.
	events := make([]Event, 0, minU64(n, 4096))
	for i := uint64(0); i < n; i++ {
		var ev Event
		ai, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		ev.ID.Agent, err = agentAt(ai)
		if err != nil {
			return nil, err
		}
		seq, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		ev.ID.Seq = int(seq)
		nPar, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if nPar > maxBatchParents {
			return nil, fmt.Errorf("egwalker: event %v has %d parents", ev.ID, nPar)
		}
		for p := uint64(0); p < nPar; p++ {
			tag, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			switch tag {
			case 0:
				back, err := r.uvarint()
				if err != nil {
					return nil, err
				}
				if back == 0 || back > i {
					return nil, fmt.Errorf("egwalker: bad relative parent in event %v", ev.ID)
				}
				ev.Parents = append(ev.Parents, events[i-back].ID)
			case 1:
				pai, err := r.uvarint()
				if err != nil {
					return nil, err
				}
				agent, err := agentAt(pai)
				if err != nil {
					return nil, err
				}
				pseq, err := r.uvarint()
				if err != nil {
					return nil, err
				}
				ev.Parents = append(ev.Parents, EventID{Agent: agent, Seq: int(pseq)})
			default:
				return nil, fmt.Errorf("egwalker: bad parent tag %d", tag)
			}
		}
		kind, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		pos, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		ev.Pos = int(pos)
		switch kind {
		case 0:
			ev.Insert = true
			c, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			if c > math.MaxInt32 {
				return nil, fmt.Errorf("egwalker: invalid rune in event %v", ev.ID)
			}
			ev.Content = rune(c)
		case 1:
		default:
			return nil, fmt.Errorf("egwalker: bad op kind %d", kind)
		}
		events = append(events, ev)
	}
	return events, nil
}

// --- delta blocks ---------------------------------------------------------
//
// A delta block is a self-delimiting, checksummed container for one
// event batch:
//
//	uvarint payload length | uint32le CRC32-C of payload | payload
//
// Blocks are designed to be appended: a file (or stream) may carry any
// number of them back to back. Package store builds its write-ahead log
// segments out of delta blocks; SaveSince/ReadDelta expose the same
// unit for incremental file save/load (save a full document once, then
// append the events since the last save instead of rewriting the file).

// WrapDeltaPayload wraps an already-encoded batch payload in the
// delta-block envelope without re-encoding it. This is the one block
// writer: a store journals an uploaded frame's exact bytes through it
// (zero-copy), and its own commits and WriteDelta wrap freshly encoded
// columnar payloads. ReadDelta recovers either as any other block. The
// caller vouches that payload is a complete MarshalEventsCompact
// batch.
func WrapDeltaPayload(payload []byte) ([]byte, error) {
	if len(payload) > MaxDeltaPayload {
		return nil, fmt.Errorf("%w (%d bytes, cap %d)", ErrBlockTooLarge, len(payload), MaxDeltaPayload)
	}
	block := make([]byte, 0, binary.MaxVarintLen64+4+len(payload))
	block = appendUvarint(block, uint64(len(payload)))
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.Checksum(payload, crcTable))
	block = append(block, crc[:]...)
	return append(block, payload...), nil
}

// WriteDelta writes the given events as one delta block with a
// columnar payload. A batch whose encoding exceeds MaxDeltaPayload is
// rejected with ErrBlockTooLarge before anything is written.
func WriteDelta(w io.Writer, events []Event) error {
	payload, err := MarshalEventsCompact(events)
	if err != nil {
		return err
	}
	block, err := WrapDeltaPayload(payload)
	if err != nil {
		return err
	}
	_, err = w.Write(block)
	return err
}

// SaveSince writes the events newer than v as one delta block — the
// incremental complement to Save. A caller that saved a document at
// version v can append the result to the same file (or ship it to a
// peer) instead of rewriting the whole history; ReadDelta + Apply
// reconstruct the missing events on the other side.
func (d *Doc) SaveSince(w io.Writer, v Version) error {
	evs, err := d.EventsSince(v)
	if err != nil {
		return err
	}
	return WriteDelta(w, evs)
}

// ReadDelta reads one delta block from r. It returns io.EOF when r is
// exhausted cleanly at a block boundary, an error wrapping
// io.ErrUnexpectedEOF when the block is cut short (a torn write — the
// reader may safely truncate at the last boundary), and
// ErrCorruptDelta when the checksum does not match.
func ReadDelta(r io.Reader) ([]Event, error) {
	br, ok := r.(io.ByteReader)
	if !ok {
		br = &singleByteReader{r: r}
	}
	first := true
	n, err := func() (uint64, error) {
		// Distinguish "no more blocks" (clean EOF before the first
		// length byte) from a torn length prefix.
		var v uint64
		var shift uint
		for {
			b, err := br.ReadByte()
			if err != nil {
				if err == io.EOF && first {
					return 0, io.EOF
				}
				return 0, fmt.Errorf("egwalker: torn delta length: %w", io.ErrUnexpectedEOF)
			}
			first = false
			if shift >= 64 {
				// A length prefix this mangled is damage, not a format
				// difference; classify as corruption so a WAL reader can
				// truncate it at a tail.
				return 0, fmt.Errorf("egwalker: delta length overflow: %w", ErrCorruptDelta)
			}
			v |= uint64(b&0x7f) << shift
			if b < 0x80 {
				return v, nil
			}
			shift += 7
		}
	}()
	if err != nil {
		return nil, err
	}
	if n > MaxDeltaPayload {
		// No writer produces blocks past the cap (WrapDeltaPayload
		// enforces it), so an oversized length is a damaged prefix —
		// corruption, truncatable at a tail.
		return nil, fmt.Errorf("egwalker: delta block claims %d bytes (cap %d): %w", n, MaxDeltaPayload, ErrCorruptDelta)
	}
	buf := make([]byte, 4+n)
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("egwalker: torn delta block: %w", io.ErrUnexpectedEOF)
		}
		return nil, err
	}
	want := binary.LittleEndian.Uint32(buf[:4])
	payload := buf[4:]
	if crc32.Checksum(payload, crcTable) != want {
		return nil, ErrCorruptDelta
	}
	return UnmarshalEventsAuto(payload)
}

// ApplyDelta reads one delta block from r and merges its events,
// returning the patches applied to the local text (see Apply).
func (d *Doc) ApplyDelta(r io.Reader) ([]Patch, error) {
	evs, err := ReadDelta(r)
	if err != nil {
		return nil, err
	}
	return d.Apply(evs)
}

// singleByteReader adapts an io.Reader lacking ReadByte. Delta lengths
// are read byte by byte so the reader never consumes past its block.
type singleByteReader struct {
	r   io.Reader
	one [1]byte
}

func (s *singleByteReader) ReadByte() (byte, error) {
	if _, err := io.ReadFull(s.r, s.one[:]); err != nil {
		return 0, err
	}
	return s.one[0], nil
}

func (s *singleByteReader) Read(p []byte) (int, error) { return s.r.Read(p) }
