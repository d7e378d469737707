// Package netsync replicates egwalker documents over a network. It
// implements the paper's replication layer (§2.1): a reliable protocol
// that eventually delivers every event to every replica, on top of any
// stream transport (TCP, net.Pipe, tls.Conn, ...).
//
// The wire format follows §3.8: when sending a subset of events,
// references to parent events outside the subset are encoded as
// (agent, seq) event IDs; parents inside the subset compress to
// relative indexes, and runs of events by one agent share one ID entry.
// Every events frame carries the compact columnar batch encoding
// (docs/FORMAT.md), the same codec the durable store's write-ahead log
// uses, so a host forwards uploads to subscribers verbatim.
//
// Two modes are provided:
//
//   - Sync: one-shot anti-entropy — two replicas exchange version
//     summaries and the events the other is missing, then confirm
//     convergence.
//   - Relay: a hub that fans events out to connected peers for live
//     collaboration (examples/tcp-pair shows both).
//
// A connection to a multi-document host (store.Server) begins with a
// doc hello (Hello, WriteHello/ReadHello) naming the document and
// carrying the client's version summary: the host routes the rest of
// the stream to that document and answers with exactly the events the
// client is missing.
package netsync

import (
	"encoding/binary"
	"fmt"
	"io"

	"egwalker"
)

// Message types. 0x01 (the frontier hello of Sync) and 0x04 (the first
// doc hello generation) are retired: readers reject them.
const (
	msgEvents   = 0x02 // payload: event batch, columnar (sniffed, see Unmarshal)
	msgDone     = 0x03 // payload: empty
	msgDocHello = 0x05 // payload: uvarint flags, doc ID, optional version summary
	msgRedirect = 0x06 // payload: uvarint count, then length-prefixed node addresses
	msgSummary  = 0x07 // payload: version summary (anti-entropy exchange)
)

// Flag bits in a doc hello. helloCompact is required: it states that
// the peer decodes the compact columnar encoding, which is the only one
// a host sends. Bits 0x02 (frontier resume) and 0x04 (redirect opt-in)
// are retired and, like any other unknown bit, rejected.
const (
	helloCompact = 1 << 0
	// helloReplica marks a server-to-server replication link (see
	// Hello.Replica).
	helloReplica = 1 << 3
	// helloSummary: a run-length version summary follows the doc ID
	// (see Hello.Summary).
	helloSummary = 1 << 4

	knownHelloFlags = helloCompact | helloReplica | helloSummary
)

// maxFrame bounds a single frame's payload. The cap is checked before
// any allocation, so a corrupt or hostile peer advertising a huge
// length prefix cannot trigger an unbounded allocation. Event batches
// larger than this are split (see MarshalChunksCompact). It is the
// delta-block payload cap, so one WAL block is one frame and vice
// versa.
const maxFrame = egwalker.MaxDeltaPayload

// maxEventsPerBlock is the event count MarshalChunksCompact cuts a
// batch at before checking bytes, so one frame (or WAL block) stays far
// below maxFrame: 64k single-character events encode to well under
// 1 MiB.
const maxEventsPerBlock = 1 << 16

// maxDocID bounds the document ID in a doc-hello frame.
const maxDocID = 4096

// maxAgentName bounds an agent name in a decoded summary, and maxSeq
// bounds a decoded sequence number. Both arrive in the unauthenticated
// first frame of a connection, and both were once cast to int
// unchecked — a 2^63 seq uvarint decoded to a *negative* EventID.Seq,
// poisoning every downstream comparison and map keyed on it. maxSeq is
// far above any real history (2^48 single-character events is ~280 TB
// of text) while keeping all arithmetic on the value safely inside
// int64.
const (
	maxAgentName = 4096
	maxSeq       = 1 << 48
)

// writeFrame writes a length-prefixed, typed frame.
func writeFrame(w io.Writer, typ byte, payload []byte) error {
	var hdr [5]byte
	if len(payload) > maxFrame {
		return fmt.Errorf("netsync: frame too large (%d bytes)", len(payload))
	}
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)))
	hdr[4] = typ
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one frame, validating the advertised length before
// allocating.
func readFrame(r io.Reader) (byte, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n > maxFrame {
		return 0, nil, fmt.Errorf("netsync: oversized frame (%d bytes, cap %d)", n, maxFrame)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return hdr[4], payload, nil
}

// writeEventsChunked writes a batch as one or more msgEvents frames,
// splitting so no frame exceeds the cap. Receivers apply frames
// independently; within one batch later chunks may reference earlier
// chunks' events as external parents, which Apply resolves (they are
// already admitted by the time the later chunk arrives).
//
// An empty batch still writes one frame: receivers treat the first
// events frame as the snapshot/anti-entropy payload even when there is
// nothing to send.
func writeEventsChunked(w io.Writer, events []egwalker.Event) error {
	batches, err := MarshalChunksCompact(events)
	if err != nil {
		return err
	}
	for _, batch := range batches {
		if err := writeFrame(w, msgEvents, batch); err != nil {
			return err
		}
	}
	return nil
}

// MarshalChunksCompact encodes a batch in the compact columnar
// encoding (docs/FORMAT.md) as one or more frame-sized payloads: split
// by event count first, then — for pathological event sizes (maximal
// agent names, very wide frontiers) — by halving until each payload
// fits under the frame cap. It is the one splitter: fan-out, catch-up
// frames and the store's WAL blocks are all cut by it. Causal order is
// preserved, so each payload is itself a valid batch — later ones
// reference earlier ones' events as external parents, which Apply
// resolves because they are admitted first. A single event whose
// encoding alone exceeds the cap is an error (nothing can carry it),
// never an over-cap chunk or an unbounded split.
func MarshalChunksCompact(events []egwalker.Event) ([][]byte, error) {
	return marshalChunks(events, maxFrame)
}

// marshalChunks is MarshalChunksCompact with the frame cap as a
// parameter so tests can exercise the splitting and failure paths
// without building multi-mebibyte batches.
func marshalChunks(events []egwalker.Event, limit int) ([][]byte, error) {
	var out [][]byte
	var emit func(evs []egwalker.Event) error
	emit = func(evs []egwalker.Event) error {
		batch, err := egwalker.MarshalEventsCompact(evs)
		if err != nil {
			return err
		}
		if len(batch) > limit {
			if len(evs) <= 1 {
				return fmt.Errorf("netsync: single event encodes to %d bytes, over the %d-byte frame cap", len(batch), limit)
			}
			if err := emit(evs[:len(evs)/2]); err != nil {
				return err
			}
			return emit(evs[len(evs)/2:])
		}
		out = append(out, batch)
		return nil
	}
	// An empty batch still yields one (empty) payload.
	for off := 0; off == 0 || off < len(events); off += maxEventsPerBlock {
		if err := emit(events[off:min(off+maxEventsPerBlock, len(events))]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// --- varint helpers -------------------------------------------------------

func putUvarint(buf []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	return append(buf, tmp[:n]...)
}

type byteReader struct {
	buf []byte
	off int
}

func (r *byteReader) ReadByte() (byte, error) {
	if r.off >= len(r.buf) {
		return 0, io.ErrUnexpectedEOF
	}
	b := r.buf[r.off]
	r.off++
	return b, nil
}

func (r *byteReader) uvarint() (uint64, error) {
	return binary.ReadUvarint(r)
}

func (r *byteReader) bytes(n int) ([]byte, error) {
	if n < 0 || r.off+n > len(r.buf) {
		return nil, io.ErrUnexpectedEOF
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b, nil
}

// --- event subset encoding (§3.8, network form) ---------------------------

// Unmarshal decodes an events-frame payload. The encoding is sniffed
// (egwalker.UnmarshalEventsAuto), so a frame holding a legacy batch —
// a block streamed verbatim from an older write-ahead log — decodes
// too.
func Unmarshal(data []byte) ([]egwalker.Event, error) {
	return egwalker.UnmarshalEventsAuto(data)
}
