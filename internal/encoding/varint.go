package encoding

import (
	"fmt"
	"io"
)

// Variable-length integer encoding (§3.8: "a variable-length binary
// encoding of integers, which represents small numbers in one byte,
// larger numbers in two bytes, etc."). Unsigned LEB128, plus zigzag for
// signed values.

// putUvarint appends v to buf in LEB128.
func putUvarint(buf []byte, v uint64) []byte {
	for v >= 0x80 {
		buf = append(buf, byte(v)|0x80)
		v >>= 7
	}
	return append(buf, byte(v))
}

// putVarint appends a zigzag-encoded signed value.
func putVarint(buf []byte, v int64) []byte {
	return putUvarint(buf, uint64(v<<1)^uint64(v>>63))
}

// reader consumes varints from a byte slice with error tracking.
type reader struct {
	buf []byte
	off int
	err error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// failTruncated records a partial-read failure: the input stopped short
// of a complete structure. Unlike structural corruption (bad tags,
// mismatched counts), truncation is what a torn write at the end of a
// file produces, so these errors wrap io.ErrUnexpectedEOF — callers
// like the store's WAL reopen path check errors.Is(err,
// io.ErrUnexpectedEOF) to decide that truncating the tail is safe.
func (r *reader) failTruncated(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("encoding: truncated %s at offset %d: %w", what, r.off, io.ErrUnexpectedEOF)
	}
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	var v uint64
	var shift uint
	for {
		if r.off >= len(r.buf) {
			r.failTruncated("varint")
			return 0
		}
		b := r.buf[r.off]
		r.off++
		if shift >= 64 {
			r.fail("encoding: varint overflow at offset %d", r.off)
			return 0
		}
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v
		}
		shift += 7
	}
}

func (r *reader) varint() int64 {
	u := r.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

func (r *reader) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > r.remaining() {
		r.failTruncated(fmt.Sprintf("byte run (%d wanted, %d left)", n, len(r.buf)-r.off))
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *reader) remaining() int { return len(r.buf) - r.off }

// writeColumn writes a length-prefixed column.
func writeColumn(w io.Writer, col []byte) error {
	var hdr []byte
	hdr = putUvarint(hdr, uint64(len(col)))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err := w.Write(col)
	return err
}

// count reads an element count for a list whose every element takes at
// least one more byte of r, failing — and returning 0 — when the count
// exceeds the bytes left, so a hostile count cannot size an
// allocation.
func (r *reader) count() int {
	n := r.uvarint()
	if r.err == nil && n > uint64(r.remaining()) {
		r.fail("encoding: count %d exceeds the %d bytes left at offset %d", n, r.remaining(), r.off)
		return 0
	}
	return int(n)
}
