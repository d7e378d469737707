package main

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"net"
	"sync"
	"time"
)

// msgEvents is the netsync frame type of an event batch (the wire
// format is documented in docs/FORMAT.md: a 4-byte big-endian payload
// length, a type byte, then the payload).
const msgEvents = 0x02

// relayIndex times the server's relay path from outside it: every
// connection handed to ServeConn is wrapped, uploads are parsed into
// frames on the read side (noting when the last byte of each event
// frame was read), and fan-out frames are parsed on the write side.
// The server forwards uploads verbatim, so a written frame whose
// payload hash matches an uploaded one is that upload being relayed.
type relayIndex struct {
	mu     sync.Mutex
	readAt map[uint64]time.Time
	// onRelay receives the payload hash and the relay interval.
	onRelay func(hash uint64, read, written time.Time)
}

func newRelayIndex(onRelay func(hash uint64, read, written time.Time)) *relayIndex {
	return &relayIndex{readAt: make(map[uint64]time.Time), onRelay: onRelay}
}

func (r *relayIndex) wrap(c net.Conn) net.Conn {
	rc := &relayConn{Conn: c, idx: r}
	rc.in.done = func(typ byte, sum uint64) {
		if typ == msgEvents {
			r.mu.Lock()
			r.readAt[sum] = time.Now()
			r.mu.Unlock()
		}
	}
	rc.out.done = func(typ byte, sum uint64) {
		if typ != msgEvents {
			return
		}
		now := time.Now()
		r.mu.Lock()
		at, ok := r.readAt[sum]
		r.mu.Unlock()
		if ok {
			r.onRelay(sum, at, now)
		}
	}
	return rc
}

// relayConn is the server side of one connection with both directions
// parsed into frames.
type relayConn struct {
	net.Conn
	idx     *relayIndex
	in, out frameScanner
}

func (c *relayConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in.feed(p[:n])
	return n, err
}

func (c *relayConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.out.feed(p[:n])
	return n, err
}

// frameScanner incrementally splits a byte stream into netsync frames
// and hashes each payload (FNV-1a 64).
type frameScanner struct {
	hdr  [5]byte
	nhdr int
	left int
	sum  hash.Hash64
	done func(typ byte, sum uint64)
}

func (s *frameScanner) feed(p []byte) {
	if s.sum == nil {
		s.sum = fnv.New64a()
	}
	for len(p) > 0 {
		if s.nhdr < len(s.hdr) {
			k := copy(s.hdr[s.nhdr:], p)
			s.nhdr += k
			p = p[k:]
			if s.nhdr < len(s.hdr) {
				return
			}
			s.left = int(binary.BigEndian.Uint32(s.hdr[:4]))
			s.sum.Reset()
		}
		k := min(s.left, len(p))
		s.sum.Write(p[:k])
		s.left -= k
		p = p[k:]
		if s.left == 0 {
			s.done(s.hdr[4], s.sum.Sum64())
			s.nhdr = 0
		}
	}
}

// payloadHash is the hash the scanner computes for a frame payload.
func payloadHash(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}
