package netsync

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"egwalker"
)

// Sync performs one round of anti-entropy between the local document
// and a remote peer over a bidirectional stream. Both sides must call
// Sync concurrently (each end of the connection runs the same
// symmetric protocol):
//
//  1. exchange summary frames carrying each side's version summary;
//  2. send the events the peer is missing (empty batches allowed);
//  3. exchange DONE frames.
//
// On return, the local document contains the union of both histories.
// Duplicate and already-known events are ignored, so Sync is idempotent
// and safe to run repeatedly (e.g. on a timer, or after reconnecting).
func Sync(doc *egwalker.Doc, conn io.ReadWriter) error {
	bw := bufio.NewWriter(conn)
	br := bufio.NewReader(conn)

	// Writes run in a goroutine so the protocol works over unbuffered
	// transports (both sides write their summary before either reads).
	// The two send stages are sequenced through channels, so the writer
	// is never used concurrently.
	helloErr := make(chan error, 1)
	go func() {
		err := writeFrame(bw, msgSummary, MarshalVersionSummary(doc.Summary()))
		if err == nil {
			err = bw.Flush()
		}
		helloErr <- err
	}()

	typ, payload, err := readFrame(br)
	if err != nil {
		return fmt.Errorf("netsync: reading summary: %w", err)
	}
	if err := <-helloErr; err != nil {
		return err
	}
	if typ != msgSummary {
		return fmt.Errorf("netsync: expected summary, got frame type %#x", typ)
	}
	theirs, err := UnmarshalVersionSummary(payload)
	if err != nil {
		return fmt.Errorf("netsync: bad version summary: %w", err)
	}

	// Send what they are missing. The summary is their exact event set,
	// so the diff is exact even when they hold events we have never
	// seen.
	missing, err := doc.EventsSinceSummary(theirs)
	if err != nil {
		return err
	}
	sendErr := make(chan error, 1)
	go func() {
		err := writeEventsChunked(bw, missing)
		if err == nil {
			err = writeFrame(bw, msgDone, nil)
		}
		if err == nil {
			err = bw.Flush()
		}
		sendErr <- err
	}()
	defer func() { <-sendErr }()

	// Apply what we receive until their DONE.
	for {
		typ, payload, err := readFrame(br)
		if err != nil {
			return fmt.Errorf("netsync: reading events: %w", err)
		}
		switch typ {
		case msgEvents:
			events, err := Unmarshal(payload)
			if err != nil {
				return err
			}
			if _, err := doc.Apply(events); err != nil {
				return err
			}
		case msgDone:
			return nil
		default:
			return fmt.Errorf("netsync: unexpected frame type %#x", typ)
		}
	}
}

// Relay is a star-topology hub for live collaboration: peers connect,
// receive the full current history, and thereafter every batch of
// events a peer uploads is stored and fanned out to all other peers.
// The relay itself is just another replica — it holds a Doc and
// forwards events; it performs no transformation (the paper's "relay
// server could store and forward messages", §2.1).
type Relay struct {
	mu    sync.Mutex
	doc   *egwalker.Doc
	peers map[int]*relayPeer
	next  int
}

// relayPeer is one connected peer's fan-out queue.
type relayPeer struct {
	outbox  chan []byte
	conn    io.ReadWriter
	severed atomic.Bool
}

// relayOutboxFrames is how many fan-out frames a peer may have queued
// before the relay gives up on it: enough to ride out a peer briefly
// descheduled during a typing burst (one frame per upload), while a
// peer that has stopped reading is cut off within a few seconds of
// live editing.
const relayOutboxFrames = 256

// errSlowPeer ends the Serve of a peer whose outbox overflowed.
var errSlowPeer = errors.New("netsync: relay: peer fell behind on fan-out and was disconnected")

// NewRelay returns a relay around the given document (which may already
// contain history).
func NewRelay(doc *egwalker.Doc) *Relay {
	return &Relay{doc: doc, peers: make(map[int]*relayPeer)}
}

// Doc returns the relay's replica (callers must not mutate it
// concurrently with Serve).
func (r *Relay) Doc() *egwalker.Doc {
	return r.doc
}

// Serve handles one peer connection; it returns when the peer
// disconnects. Run it in its own goroutine per peer. A peer that does
// not keep up with fan-out is deregistered and its Serve ends with an
// error: relay clients run no anti-entropy, so a dropped batch would
// leave it diverged for good. The connection is closed if it is an
// io.Closer; otherwise Serve ends at the peer's next frame. Uploads
// must be columnar batches, because their bytes are forwarded
// verbatim.
func (r *Relay) Serve(conn io.ReadWriter) error {
	bw := bufio.NewWriter(conn)
	br := bufio.NewReader(conn)

	// Register the peer and snapshot the current history.
	r.mu.Lock()
	id := r.next
	r.next++
	p := &relayPeer{outbox: make(chan []byte, relayOutboxFrames), conn: conn}
	r.peers[id] = p
	snapshot := r.doc.Events()
	r.mu.Unlock()
	// Deregister before closing the outbox: fanout (under mu) may still
	// hold a reference, and a send on a closed channel would panic.
	defer func() {
		r.mu.Lock()
		delete(r.peers, id)
		r.mu.Unlock()
		close(p.outbox)
	}()

	if err := writeEventsChunked(bw, snapshot); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}

	// Writer: drain the outbox.
	writeErr := make(chan error, 1)
	go func() {
		for b := range p.outbox {
			if err := writeFrame(bw, msgEvents, b); err != nil {
				writeErr <- err
				return
			}
			if err := bw.Flush(); err != nil {
				writeErr <- err
				return
			}
		}
		writeErr <- nil
	}()

	// Reader: ingest peer uploads and fan them out.
	for {
		select {
		case err := <-writeErr:
			return err
		default:
		}
		typ, payload, err := readFrame(br)
		if p.severed.Load() {
			return errSlowPeer
		}
		if err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		switch typ {
		case msgEvents:
			if !egwalker.IsCompactBatch(payload) {
				return fmt.Errorf("netsync: relay: events frame is not a columnar batch")
			}
			events, err := Unmarshal(payload)
			if err != nil {
				return err
			}
			if err := r.apply(id, events, payload); err != nil {
				return err
			}
		case msgDone:
			return nil
		default:
			return fmt.Errorf("netsync: relay: unexpected frame type %#x", typ)
		}
	}
}

// apply merges a batch uploaded by peer from and queues its bytes for
// every other peer, severing any whose outbox is full.
func (r *Relay) apply(from int, events []egwalker.Event, payload []byte) error {
	var slow []*relayPeer
	r.mu.Lock()
	_, err := r.doc.Apply(events)
	if err == nil {
		for pid, p := range r.peers {
			if pid == from {
				continue
			}
			select {
			case p.outbox <- payload:
			default:
				delete(r.peers, pid)
				p.severed.Store(true)
				slow = append(slow, p)
			}
		}
	}
	r.mu.Unlock()
	for _, p := range slow {
		// Unblock the peer's reader and any write stalled on it.
		if c, ok := p.conn.(io.Closer); ok {
			c.Close()
		}
	}
	return err
}

// PeerConn is the frame-level view of one replication connection. It
// is the building block external hosts use to speak the relay protocol
// without reimplementing framing: store.Server serves many documents by
// reading a doc-ID hello and then driving a PeerConn per connection.
// Send methods are safe for concurrent use with each other; Recv must
// be called from a single goroutine.
type PeerConn struct {
	mu sync.Mutex
	bw *bufio.Writer
	br *bufio.Reader
}

// NewPeerConn wraps a stream connection for frame-level use.
func NewPeerConn(conn io.ReadWriter) *PeerConn {
	return &PeerConn{bw: bufio.NewWriter(conn), br: bufio.NewReader(conn)}
}

// SendEvents uploads a batch in the compact columnar encoding,
// splitting it into multiple frames if it exceeds the frame cap.
func (p *PeerConn) SendEvents(events []egwalker.Event) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := writeEventsChunked(p.bw, events); err != nil {
		return err
	}
	return p.bw.Flush()
}

// SendRaw forwards an already-marshalled event batch (as returned in
// Recv's raw result) without re-encoding — the fan-out fast path.
func (p *PeerConn) SendRaw(batch []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := writeFrame(p.bw, msgEvents, batch); err != nil {
		return err
	}
	return p.bw.Flush()
}

// SendRawBatch forwards several already-marshalled event batches as
// consecutive frames under one lock acquisition and one Flush — the
// writev-style path a host's per-subscriber writer uses after draining
// its outbox, so a burst of queued frames costs one syscall instead of
// one per frame.
func (p *PeerConn) SendRawBatch(batches [][]byte) error {
	if len(batches) == 0 {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, b := range batches {
		if err := writeFrame(p.bw, msgEvents, b); err != nil {
			return err
		}
	}
	return p.bw.Flush()
}

// SendDone sends an orderly end-of-stream frame.
func (p *PeerConn) SendDone() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := writeFrame(p.bw, msgDone, nil); err != nil {
		return err
	}
	return p.bw.Flush()
}

// Recv blocks for the next frame. It returns the decoded events plus
// the raw batch payload (for re-forwarding), or done=true on an orderly
// DONE frame. io.EOF reports the peer hanging up without one. A
// redirect frame (the answer a cluster node gives a hello for a
// document it does not serve) is returned as a *RedirectError, which
// callers follow with errors.As; any other unexpected frame type is a
// plain error.
func (p *PeerConn) Recv() (events []egwalker.Event, raw []byte, done bool, err error) {
	f, err := p.RecvFrame()
	if err != nil {
		return nil, nil, false, err
	}
	switch f.Kind {
	case FrameEvents:
		return f.Events, f.Raw, false, nil
	case FrameDone:
		return nil, nil, true, nil
	case FrameRedirect:
		return nil, nil, false, &RedirectError{Addrs: f.Addrs}
	default:
		return nil, nil, false, fmt.Errorf("netsync: unexpected summary frame")
	}
}

// Client is the peer side of a Relay connection: it applies inbound
// batches to the local document and uploads local edits.
type Client struct {
	doc *egwalker.Doc
	pc  *PeerConn
}

// NewClient wraps a connection to a Relay.
func NewClient(doc *egwalker.Doc, conn io.ReadWriter) *Client {
	return &Client{doc: doc, pc: NewPeerConn(conn)}
}

// NewClientForDoc wraps a connection to a multi-document host
// (store.Server): it first sends the doc hello naming which hosted
// document to join, carrying doc's version summary, then behaves
// exactly like a Relay client. The host answers with exactly the
// events doc is missing — everything for an empty doc (streamed as the
// document's stored blocks), only the gap for a reconnecting replica,
// even when the host lacks some of doc's own events. A cluster node
// that does not serve the document answers with a redirect instead,
// which the first Receive returns as a *RedirectError.
func NewClientForDoc(doc *egwalker.Doc, conn io.ReadWriter, docID string) (*Client, error) {
	c := &Client{doc: doc, pc: NewPeerConn(conn)}
	if err := c.pc.SendHello(Hello{DocID: docID, Compact: true, Summary: doc.Summary()}); err != nil {
		return nil, err
	}
	return c, nil
}

// Push uploads local events (e.g. the result of Doc.EventsSince after
// local edits).
func (c *Client) Push(events []egwalker.Event) error {
	return c.pc.SendEvents(events)
}

// Receive blocks for the next inbound batch and applies it, returning
// the patches applied to the local document. io.EOF signals a close
// (orderly or not).
func (c *Client) Receive() ([]egwalker.Patch, error) {
	events, _, done, err := c.pc.Recv()
	if err != nil {
		return nil, err
	}
	if done {
		return nil, io.EOF
	}
	return c.doc.Apply(events)
}

// Close sends an orderly DONE frame.
func (c *Client) Close() error {
	return c.pc.SendDone()
}
