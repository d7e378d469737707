package netsync

import (
	"fmt"
	"io"

	"egwalker"
)

// Hello is a parsed doc hello: the first frame of every connection to a
// multi-document host, naming the document and carrying the peer's
// version summary. Cluster routers parse it once (ReadHello), decide
// where the document lives, and either serve it
// (store.Server.ServeHello) or answer with a redirect frame.
type Hello struct {
	DocID string
	// Compact: the peer decodes the compact columnar event encoding.
	// Required — WriteHello refuses a hello without it and ReadHello
	// rejects one, because columnar frames are all a host sends.
	Compact bool
	// Replica marks a server-to-server replication link: the host
	// answers with its own summary (so the dialing node can push what
	// the host is missing) and does not subscribe the connection to
	// live fan-out — replica links receive data only through the
	// anti-entropy exchange and the origin node's pushes.
	Replica bool
	// Summary, when non-empty, is the peer's run-length version
	// summary: its complete event set as per-agent seq ranges. A
	// summary intersects exactly with the host's own, so the host
	// answers with the true diff even when it is missing some of the
	// peer's events (a fail-over to a slightly-behind replica). Nil or
	// empty means a cold peer asking for everything.
	Summary egwalker.VersionSummary
}

// ReadHello reads a doc hello. Retired hello generations, retired or
// unknown flag bits, hellos without the compact bit, and trailing
// bytes are errors.
func ReadHello(r io.Reader) (Hello, error) {
	typ, payload, err := readFrame(r)
	if err != nil {
		return Hello{}, err
	}
	if typ != msgDocHello {
		return Hello{}, fmt.Errorf("netsync: expected doc hello, got frame type %#x", typ)
	}
	br := &byteReader{buf: payload}
	flags, err := br.uvarint()
	if err != nil {
		return Hello{}, err
	}
	if flags&^uint64(knownHelloFlags) != 0 {
		return Hello{}, fmt.Errorf("netsync: unknown doc hello flags %#x", flags)
	}
	if flags&helloCompact == 0 {
		return Hello{}, fmt.Errorf("netsync: doc hello without the compact bit")
	}
	n, err := br.uvarint()
	if err != nil {
		return Hello{}, err
	}
	if n == 0 || n > maxDocID {
		return Hello{}, fmt.Errorf("netsync: bad doc ID length %d", n)
	}
	b, err := br.bytes(int(n))
	if err != nil {
		return Hello{}, err
	}
	h := Hello{DocID: string(b), Compact: true, Replica: flags&helloReplica != 0}
	rest := payload[br.off:]
	if flags&helloSummary != 0 {
		h.Summary, err = UnmarshalVersionSummary(rest)
		if err != nil {
			return Hello{}, fmt.Errorf("netsync: bad version summary in doc hello: %w", err)
		}
	} else if len(rest) != 0 {
		return Hello{}, fmt.Errorf("netsync: %d trailing bytes in doc hello", len(rest))
	}
	return h, nil
}

// WriteHello sends h. h.Compact must be set.
func WriteHello(w io.Writer, h Hello) error {
	if len(h.DocID) == 0 || len(h.DocID) > maxDocID {
		return fmt.Errorf("netsync: bad doc ID length %d", len(h.DocID))
	}
	if !h.Compact {
		return fmt.Errorf("netsync: doc hello without the compact bit")
	}
	flags := uint64(helloCompact)
	if h.Replica {
		flags |= helloReplica
	}
	if h.Summary != nil {
		flags |= helloSummary
	}
	var payload []byte
	payload = putUvarint(payload, flags)
	payload = putUvarint(payload, uint64(len(h.DocID)))
	payload = append(payload, h.DocID...)
	if h.Summary != nil {
		payload = append(payload, MarshalVersionSummary(h.Summary)...)
	}
	return writeFrame(w, msgDocHello, payload)
}

// --- redirect frames ------------------------------------------------------

// maxRedirectAddrs and maxAddr bound a redirect frame: it arrives on an
// unauthenticated connection, so hostile counts must not allocate.
const (
	maxRedirectAddrs = 64
	maxAddr          = 256
)

// RedirectError is returned by PeerConn.Recv when the host answers the
// hello with a redirect frame instead of serving the document: the
// document lives on another node. Addrs lists where to go, preference
// order first (the serving node, then the rest of its replica set, so a
// client can fail over without a second round trip).
type RedirectError struct {
	Addrs []string
}

func (e *RedirectError) Error() string {
	return fmt.Sprintf("netsync: redirected to %v", e.Addrs)
}

func marshalRedirect(addrs []string) ([]byte, error) {
	if len(addrs) == 0 || len(addrs) > maxRedirectAddrs {
		return nil, fmt.Errorf("netsync: bad redirect addr count %d", len(addrs))
	}
	var payload []byte
	payload = putUvarint(payload, uint64(len(addrs)))
	for _, a := range addrs {
		if len(a) == 0 || len(a) > maxAddr {
			return nil, fmt.Errorf("netsync: bad redirect addr length %d", len(a))
		}
		payload = putUvarint(payload, uint64(len(a)))
		payload = append(payload, a...)
	}
	return payload, nil
}

func unmarshalRedirect(payload []byte) ([]string, error) {
	br := &byteReader{buf: payload}
	n, err := br.uvarint()
	if err != nil {
		return nil, err
	}
	if n == 0 || n > maxRedirectAddrs {
		return nil, fmt.Errorf("netsync: bad redirect addr count %d", n)
	}
	addrs := make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		ln, err := br.uvarint()
		if err != nil {
			return nil, err
		}
		if ln == 0 || ln > maxAddr {
			return nil, fmt.Errorf("netsync: bad redirect addr length %d", ln)
		}
		b, err := br.bytes(int(ln))
		if err != nil {
			return nil, err
		}
		addrs = append(addrs, string(b))
	}
	return addrs, nil
}

// --- frame-level receive --------------------------------------------------

// Frame kinds returned by PeerConn.RecvFrame.
const (
	FrameEvents = iota
	FrameDone
	FrameRedirect
	FrameSummary
)

// Frame is one received protocol frame in decoded form. Replica links
// and cluster dialers use RecvFrame where plain clients use Recv: the
// extra kinds (a summary during an anti-entropy exchange, a redirect
// answer to a doc hello) are part of their protocol, not errors.
type Frame struct {
	Kind    int
	Events  []egwalker.Event        // FrameEvents
	Raw     []byte                  // FrameEvents: the undecoded batch, for re-forwarding
	Addrs   []string                // FrameRedirect
	Summary egwalker.VersionSummary // FrameSummary
}

// RecvFrame blocks for the next frame of any kind. Like Recv it must be
// called from a single goroutine.
func (p *PeerConn) RecvFrame() (Frame, error) {
	typ, payload, err := readFrame(p.br)
	if err != nil {
		return Frame{}, err
	}
	switch typ {
	case msgEvents:
		events, err := Unmarshal(payload)
		if err != nil {
			return Frame{}, err
		}
		return Frame{Kind: FrameEvents, Events: events, Raw: payload}, nil
	case msgDone:
		return Frame{Kind: FrameDone}, nil
	case msgRedirect:
		addrs, err := unmarshalRedirect(payload)
		if err != nil {
			return Frame{}, err
		}
		return Frame{Kind: FrameRedirect, Addrs: addrs}, nil
	case msgSummary:
		s, err := UnmarshalVersionSummary(payload)
		if err != nil {
			return Frame{}, err
		}
		return Frame{Kind: FrameSummary, Summary: s}, nil
	default:
		return Frame{}, fmt.Errorf("netsync: unexpected frame type %#x", typ)
	}
}

// SendHello sends a doc hello in parsed form (see WriteHello).
func (p *PeerConn) SendHello(h Hello) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := WriteHello(p.bw, h); err != nil {
		return err
	}
	return p.bw.Flush()
}

// SendRedirect answers a hello for a document this node does not
// serve: the document lives at addrs (preference order). The
// connection should be closed after.
func (p *PeerConn) SendRedirect(addrs []string) error {
	payload, err := marshalRedirect(addrs)
	if err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := writeFrame(p.bw, msgRedirect, payload); err != nil {
		return err
	}
	return p.bw.Flush()
}

// SendSummary sends a version-summary frame — one side of an
// anti-entropy exchange: the answering side computes an exact diff
// even when it is behind the sender.
func (p *PeerConn) SendSummary(s egwalker.VersionSummary) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := writeFrame(p.bw, msgSummary, MarshalVersionSummary(s)); err != nil {
		return err
	}
	return p.bw.Flush()
}
