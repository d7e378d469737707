// Package store persists egwalker documents durably and hosts many of
// them at once: the "Smaller" side of the paper made operational. Each
// document gets a directory holding
//
//   - an append-only, segmented write-ahead log: wal-<seq>.seg files of
//     CRC-protected delta blocks (egwalker.WriteDelta — the same §3.8
//     batch encoding used on the network), rotated at a size threshold;
//   - snapshots: snap-<seq>.egw files written with Doc.Save
//     (CacheFinalDoc), where <seq> is the first WAL segment NOT covered
//     by the snapshot;
//   - compaction: once a snapshot covers them, sealed segments and
//     older snapshots are deleted.
//
// Recovery is one journal scan. It adopts the newest snapshot whose ID
// columns inspect cleanly (passing over unreadable ones for older
// ones), then walks every WAL segment at or after it block by block:
// each block's checksum is verified and its event IDs and causal
// references are folded into a known-ID index, without decoding
// positions or content. A torn tail — a partial frame left by a crash
// mid-append — is detected (checksum mismatch or a block cut short,
// surfacing io.ErrUnexpectedEOF) and truncated away. OpenLazy stops
// there; Open, and any later call that needs the document, materializes
// it by decoding the same blocks into an egwalker.Doc. Every segment
// read goes through one reader, walkSegmentBlocks.
//
// DocStore is one durable document; Server (server.go) hosts many
// behind string document IDs with an LRU of materialized docs, batched
// fsyncs, and background compaction.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"strings"

	"egwalker"
)

// Segment file layout: a 5-byte header (magic + format version), then
// zero or more delta blocks appended over time.
var segMagic = [4]byte{'E', 'G', 'W', 'S'}

const (
	segVersion   = 1
	segHeaderLen = 5
)

// errBadSegment reports a file that is not a WAL segment at all (bad
// magic or unknown version) — unlike a torn tail, this is never safe to
// repair by truncation.
var errBadSegment = errors.New("store: not a WAL segment")

// writeSegmentHeader starts a fresh segment file.
func writeSegmentHeader(f File) error {
	hdr := append(append([]byte(nil), segMagic[:]...), segVersion)
	_, err := f.Write(hdr)
	return err
}

// blockWalk is what walking a segment's blocks yields.
type blockWalk struct {
	// validLen is the byte offset after the last cleanly parsed block.
	validLen int64
	// tail is non-nil when the walk stopped before the end of the data
	// on envelope damage: the reason the remaining bytes are unusable.
	// A torn tail (crash mid-append) surfaces io.ErrUnexpectedEOF or
	// egwalker.ErrCorruptDelta here.
	tail error
}

// walkSegmentBlocks is the one WAL segment reader. It walks a segment
// byte image's delta-block envelopes, verifying each checksum and
// handing fn the raw payload — the exact batch bytes a writer
// journaled, without decoding them. Recovery scans, block serving and
// scrubbing use the payloads as they are; materialization and salvage
// decode them (applySegment). The payload slice aliases data and is
// only valid during the call.
//
// It returns an error only for damage truncation cannot repair: a file
// that is not a segment (bad magic or version; the walk is nil), or a
// non-nil error from fn, which stops the walk and is returned verbatim
// alongside it (validLen then ends before the refused block). Envelope
// damage is reported via blockWalk.tail instead, for the caller's
// torn-tail policy.
func walkSegmentBlocks(data []byte, fn func(payload []byte) error) (*blockWalk, error) {
	if len(data) < segHeaderLen {
		return &blockWalk{validLen: 0, tail: fmt.Errorf("store: segment header cut short: %w", io.ErrUnexpectedEOF)}, nil
	}
	if string(data[:4]) != string(segMagic[:]) {
		return nil, fmt.Errorf("%w: bad magic %q", errBadSegment, data[:4])
	}
	if data[4] != segVersion {
		return nil, fmt.Errorf("%w: unknown version %d", errBadSegment, data[4])
	}
	w := &blockWalk{validLen: segHeaderLen}
	off := segHeaderLen
	for off < len(data) {
		// Length prefix (uvarint).
		n, width := uint64(0), 0
		for shift := uint(0); ; shift += 7 {
			if off+width >= len(data) {
				w.tail = fmt.Errorf("store: torn delta length: %w", io.ErrUnexpectedEOF)
				return w, nil
			}
			if shift >= 64 {
				w.tail = fmt.Errorf("store: delta length overflow: %w", egwalker.ErrCorruptDelta)
				return w, nil
			}
			b := data[off+width]
			width++
			n |= uint64(b&0x7f) << shift
			if b < 0x80 {
				break
			}
		}
		if n > egwalker.MaxDeltaPayload {
			w.tail = fmt.Errorf("store: delta block claims %d bytes: %w", n, egwalker.ErrCorruptDelta)
			return w, nil
		}
		blockEnd := off + width + 4 + int(n)
		if blockEnd > len(data) {
			w.tail = fmt.Errorf("store: torn delta block: %w", io.ErrUnexpectedEOF)
			return w, nil
		}
		crcOff := off + width
		payload := data[crcOff+4 : blockEnd]
		if crc32.Checksum(payload, blockCRCTable) != binary.LittleEndian.Uint32(data[crcOff:crcOff+4]) {
			w.tail = egwalker.ErrCorruptDelta
			return w, nil
		}
		if err := fn(payload); err != nil {
			return w, err
		}
		off = blockEnd
		w.validLen = int64(off)
	}
	return w, nil
}

// applySegment replays a segment byte image into doc. A block with a
// valid checksum that does not decode or apply stops the replay with
// an error, never a tail: that is a writer bug or hostile bytes, not a
// crash, and truncating it away would silently drop history.
func applySegment(doc *egwalker.Doc, data []byte) (*blockWalk, error) {
	return walkSegmentBlocks(data, func(payload []byte) error {
		evs, err := egwalker.UnmarshalEventsAuto(payload)
		if err == nil {
			_, err = doc.Apply(evs)
		}
		return err
	})
}

// blockCRCTable mirrors the delta-block checksum polynomial
// (CRC32-C, see egwalker's delta encoding).
var blockCRCTable = crc32.MakeTable(crc32.Castagnoli)

// tornTail reports whether a walk stopped for damage of the kind a
// crash mid-append (or tail bit rot) produces — a block cut short, a
// checksum mismatch, a mangled length prefix — which is safe to repair
// by truncating the *last* segment to validLen. A structurally
// impossible but checksummed block is not classified torn: it means a
// writer bug, and recovery refuses to silently discard it.
func tornTail(err error) bool {
	return errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, egwalker.ErrCorruptDelta)
}

// --- document ID <-> directory names --------------------------------------

// escapeDocID maps an arbitrary document ID to a safe directory name:
// alphanumerics, '.', '_' and '-' pass through (except leading dots);
// everything else becomes %XX. The mapping is invertible so Server can
// enumerate hosted documents from the filesystem.
func escapeDocID(id string) string {
	var b strings.Builder
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '_', c == '-', c == '.' && i > 0:
			b.WriteByte(c)
		default:
			fmt.Fprintf(&b, "%%%02X", c)
		}
	}
	return b.String()
}

func unescapeDocID(name string) (string, error) {
	var b strings.Builder
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c != '%' {
			b.WriteByte(c)
			continue
		}
		if i+2 >= len(name) {
			return "", fmt.Errorf("store: truncated escape in %q", name)
		}
		var v int
		if _, err := fmt.Sscanf(name[i+1:i+3], "%02X", &v); err != nil {
			return "", fmt.Errorf("store: bad escape in %q: %w", name, err)
		}
		b.WriteByte(byte(v))
		i += 2
	}
	return b.String(), nil
}
