package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"egwalker"
	"egwalker/internal/trace"
	"egwalker/netsync"
	"egwalker/store"
)

// live-pair: two editors on one document, each typing bursts open-loop
// at pairRate events per second and applying the other's edits as they
// arrive. The editors type like the two live users of the paper's C1
// trace (trace.C1: mean burst 7, jump 2%, 90% of text surviving). The
// operation is one burst; its latency runs from when the burst was due
// until the other editor has applied it (fan-out latency). The document
// starts from a stored 10k-event snapshot the editors join cold, and
// compaction runs every 8192 events as it grows. The rate stays well
// below the knee: at 2000 events per second per editor deliveries
// collapsed on some runs.
const (
	pairDoc      = "pair"
	pairRate     = 1000 // events per second per editor
	pairBase     = 10000
	pairBaseTiny = 300
)

type livePair struct {
	e      *env
	eds    [2]*editor
	base   int
	sendWG sync.WaitGroup
	recvWG sync.WaitGroup
}

// editor is one collaborator: a replica, its connection, its typist,
// and the bursts it sent that the other editor has not applied yet.
type editor struct {
	agent  string
	conn   net.Conn
	pc     *netsync.PeerConn
	typist *trace.Typist

	mu  sync.Mutex // guards doc
	doc *egwalker.Doc

	pmu     sync.Mutex
	pending []burst

	typed atomic.Int64 // events this editor typed during the load
}

type burst struct {
	lastSeq int
	due     time.Time
	span    int64
}

// prepareLivePair stores the shared document: a typed history folded
// into a snapshot, as a long-lived document would be.
func prepareLivePair(e *env) (setupFunc, error) {
	base := pairBase
	if e.cfg.tiny {
		base = pairBaseTiny
	}
	author := egwalker.NewDoc("author")
	if err := typeHistory(author, trace.NewTypist(trace.TypistOptions{Seed: e.cfg.seed}), base); err != nil {
		return nil, err
	}
	events := author.Events()
	raw, err := egwalker.MarshalEventsCompact(events)
	if err != nil {
		return nil, err
	}
	if err := populate(e.dir, pairDoc, events, raw, true); err != nil {
		return nil, fmt.Errorf("populating: %w", err)
	}
	return func() (instance, error) { return setupLivePair(e, len(events)) }, nil
}

// setupLivePair starts the server and joins both editors cold.
func setupLivePair(e *env, base int) (instance, error) {
	if err := e.startServer(); err != nil {
		return nil, err
	}
	lp := &livePair{e: e, base: base}
	for i, name := range []string{"alice", "bob"} {
		ed := &editor{
			agent:  name,
			doc:    egwalker.NewDoc(name),
			typist: trace.TypistFromSpec(trace.C1, e.cfg.seed*7919+int64(i)+1),
		}
		lp.eds[i] = ed
		var err error
		if ed.conn, ed.pc, err = e.h.dial(); err != nil {
			lp.close()
			return nil, err
		}
		// A cold join: an empty summary asks for everything, which the
		// server answers with the stored blocks.
		if err := ed.pc.SendHello(netsync.Hello{DocID: pairDoc, Compact: true, Summary: ed.doc.Summary()}); err != nil {
			lp.close()
			return nil, err
		}
		for ed.doc.NumEvents() < lp.base {
			evs, _, _, err := ed.pc.Recv()
			if err != nil {
				lp.close()
				return nil, fmt.Errorf("%s joining: %w", name, err)
			}
			if _, err := ed.doc.Apply(evs); err != nil {
				lp.close()
				return nil, err
			}
		}
	}
	return lp, nil
}

func (lp *livePair) start(stop <-chan struct{}) {
	for i, ed := range lp.eds {
		peer := lp.eds[1-i]
		p := lp.e.pacer(pairRate, stop)
		lp.sendWG.Add(1)
		go func() {
			defer lp.sendWG.Done()
			lp.send(ed, p)
		}()
		lp.recvWG.Add(1)
		go func() {
			defer lp.recvWG.Done()
			lp.receive(ed, peer)
		}()
	}
}

// send types one burst each time the pacer says one is due.
func (lp *livePair) send(ed *editor, p *pacer) {
	e, tr := lp.e, lp.e.tr
	for {
		due, ok := p.wait()
		if !ok {
			return
		}
		id := tr.id()
		t0 := time.Now()
		ed.mu.Lock()
		events, err := edit(ed.doc, ed.typist)
		ed.mu.Unlock()
		if err != nil {
			e.fail(1, "%s editing: %v", ed.agent, err)
			return
		}
		tr.add(0, id, "egwalker.edit", t0, time.Now(), len(events), 0)
		e.attempted.Add(int64(len(events)))
		ed.pmu.Lock()
		ed.pending = append(ed.pending, burst{lastSeq: events[len(events)-1].ID.Seq, due: due, span: id})
		ed.pmu.Unlock()
		if _, err := e.upload(id, ed.pc, events); err != nil {
			e.fail(len(events), "%s: %v", ed.agent, err)
			return
		}
		ed.typed.Add(int64(len(events)))
		e.ops.Add(int64(len(events)))
		p.done(len(events))
	}
}

// receive applies everything the server relays to ed and retires the
// peer's bursts it completes.
func (lp *livePair) receive(ed, peer *editor) {
	tr := lp.e.tr
	for {
		evs, raw, done, err := ed.pc.Recv()
		if err != nil || done {
			return
		}
		t0 := time.Now()
		ed.mu.Lock()
		_, err = ed.doc.Apply(evs)
		ed.mu.Unlock()
		t1 := time.Now()
		if err != nil {
			lp.e.fail(len(evs), "%s applying: %v", ed.agent, err)
			return
		}
		maxSeq := -1
		for _, ev := range evs {
			if ev.ID.Agent == peer.agent && ev.ID.Seq > maxSeq {
				maxSeq = ev.ID.Seq
			}
		}
		peer.pmu.Lock()
		n := 0
		for n < len(peer.pending) && peer.pending[n].lastSeq <= maxSeq {
			n++
		}
		retired := peer.pending[:n:n]
		peer.pending = peer.pending[n:]
		peer.pmu.Unlock()
		var parent int64
		for _, b := range retired {
			lp.e.lat.add(msOf(t1.Sub(b.due)))
			tr.add(b.span, 0, "op.burst", b.due, t1, 0, 0)
			parent = b.span
		}
		if tr != nil {
			tr.add(0, parent, "egwalker.apply", t0, t1, len(evs), len(raw))
			decodeSpan(tr, parent, raw)
		}
	}
}

// finish waits for the senders and then for both replicas to hold every
// typed event; events still missing after the drain count as failed.
func (lp *livePair) finish() error {
	lp.sendWG.Wait()
	deadline := time.Now().Add(10 * time.Second)
	want := lp.base + int(lp.eds[0].typed.Load()+lp.eds[1].typed.Load())
	for _, ed := range lp.eds {
		for {
			ed.mu.Lock()
			got := ed.doc.NumEvents()
			ed.mu.Unlock()
			if got >= want {
				break
			}
			if time.Now().After(deadline) {
				lp.e.fail(want-got, "%s: %d of %d events not delivered after the drain", ed.agent, want-got, want)
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

func (lp *livePair) verify() error {
	a, b := lp.eds[0], lp.eds[1]
	a.mu.Lock()
	defer a.mu.Unlock()
	b.mu.Lock()
	defer b.mu.Unlock()
	if lp.e.cfg.diverge {
		// Self-test: an edit that never leaves alice's replica.
		if err := a.doc.Insert(0, "#"); err != nil {
			return err
		}
	}
	var serverFP uint64
	if err := lp.e.h.srv.With(pairDoc, func(ds *store.DocStore) error {
		var err error
		serverFP, err = ds.Fingerprint()
		return err
	}); err != nil {
		return err
	}
	return converged(map[string]*egwalker.Doc{a.agent: a.doc, b.agent: b.doc}, map[string]uint64{"server": serverFP})
}

// converged checks every replica, and every fingerprint reported by a
// replica held elsewhere (the server's), against a fresh Doc rebuilt
// from the union of the replicas' events.
func converged(replicas map[string]*egwalker.Doc, others map[string]uint64) error {
	oracle := egwalker.NewDoc("oracle")
	for _, d := range replicas {
		if _, err := oracle.Apply(d.Events()); err != nil {
			return fmt.Errorf("rebuilding the union: %w", err)
		}
	}
	want := oracle.Fingerprint()
	var errs []error
	for name, d := range replicas {
		if fp := d.Fingerprint(); fp != want {
			errs = append(errs, fmt.Errorf("%s diverged: fingerprint %x, union %x (%d vs %d events)", name, fp, want, d.NumEvents(), oracle.NumEvents()))
		}
	}
	for name, fp := range others {
		if fp != want {
			errs = append(errs, fmt.Errorf("%s diverged: fingerprint %x, union %x", name, fp, want))
		}
	}
	return errors.Join(errs...)
}

func (lp *livePair) diskBytesPerEvent() (float64, error) {
	return diskPerEvent(lp.e.h.srv, []string{pairDoc})
}

func (lp *livePair) close() error {
	for _, ed := range lp.eds {
		if ed != nil && ed.conn != nil {
			ed.conn.Close()
		}
	}
	lp.recvWG.Wait()
	if lp.e.h == nil {
		return nil
	}
	return lp.e.h.close()
}

// drainClose ends a client connection politely: DONE, then read until
// the server hangs up, which proves it has ingested everything sent
// before. Frames relayed meanwhile are applied to doc; each must carry
// only events doc did not hold.
func drainClose(pc *netsync.PeerConn, conn net.Conn, doc *egwalker.Doc) error {
	defer conn.Close()
	if err := pc.SendDone(); err != nil {
		return err
	}
	for {
		evs, _, done, err := pc.Recv()
		if errors.Is(err, io.EOF) || done {
			return nil
		}
		if err != nil {
			return err
		}
		if err := allNew(doc, evs); err != nil {
			return fmt.Errorf("relayed frame: %w", err)
		}
		if _, err := doc.Apply(evs); err != nil {
			return err
		}
	}
}

// allNew reports an error if the server sent an event doc already held.
func allNew(doc *egwalker.Doc, evs []egwalker.Event) error {
	for _, ev := range evs {
		if doc.Knows(ev.ID) {
			return fmt.Errorf("server re-sent %v, which the copy already held", ev.ID)
		}
	}
	return nil
}
