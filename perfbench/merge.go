package main

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"egwalker"
	"egwalker/internal/trace"
	"egwalker/netsync"
	"egwalker/store"
)

// offline-merge: the paper's headline claim, measured through the
// server. The server stores a document of mergeBase events, which the
// online editor joins at set-up. Each round the online editor forks it
// into a fresh document (uploading its history there); the offline
// editor joins that, disconnects, and types a mergeOffline-event
// branch while the online editor types mergeOnline events at
// mergeOnlineRate. The offline editor then reconnects with a summary
// hello and uploads its branch, and the online editor, still
// subscribed, merges it. The operation is one round; its latency runs
// from the reconnect until both replicas' fingerprints are equal, and
// cpu_us_per_op is per merged (branch) event. Rounds run back to back.
const (
	mergeBase       = 5000
	mergeOnline     = 500
	mergeOffline    = 100000
	mergeOnlineRate = 2000 // events per second
)

type offlineMerge struct {
	e                     *env
	base, online, offline int
	origin                *egwalker.Doc // the online editor's copy of the stored document
	stop                  <-chan struct{}
	done                  chan struct{}

	mu     sync.Mutex
	rounds []roundResult
}

// roundResult is what the convergence gate re-checks at the end.
type roundResult struct {
	doc  string
	fp   uint64
	last *egwalker.Doc // the online replica (kept for the final round only)
}

// prepareOfflineMerge stores the document every round forks.
func prepareOfflineMerge(e *env) (setupFunc, error) {
	base, online, offline := mergeBase, mergeOnline, mergeOffline
	if e.cfg.tiny {
		base, online, offline = 300, 50, 3000
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
	if err := populate(e.dir, mergeOrigin, events, raw, false); err != nil {
		return nil, fmt.Errorf("populating: %w", err)
	}
	return func() (instance, error) {
		m := &offlineMerge{e: e, base: len(events), online: online, offline: offline}
		if err := e.startServer(); err != nil {
			return nil, err
		}
		// The online editor's copy of the stored document.
		r := &replica{doc: egwalker.NewDoc("online")}
		err := m.join(r, mergeOrigin, len(events), 0)
		if err == nil {
			err = drainClose(r.pc, r.conn, r.doc)
		}
		if err != nil {
			e.h.close()
			return nil, fmt.Errorf("joining %s: %w", mergeOrigin, err)
		}
		m.origin = r.doc
		return m, nil
	}, nil
}

// mergeOrigin is the stored document every round forks.
const mergeOrigin = "origin"

func (m *offlineMerge) start(stop <-chan struct{}) {
	m.stop = stop
	m.done = make(chan struct{})
	go func() {
		defer close(m.done)
		for r := 0; ; r++ {
			select {
			case <-stop:
				return
			default:
			}
			m.e.attempted.Add(1)
			res, err := m.round(r)
			if err != nil {
				m.e.fail(1, "round %d: %v", r, err)
				return
			}
			m.mu.Lock()
			if len(m.rounds) > 0 {
				m.rounds[len(m.rounds)-1].last = nil
			}
			m.rounds = append(m.rounds, res)
			m.mu.Unlock()
		}
	}()
}

// replica is one editor's side of a round: its document and, while
// connected, its connection.
type replica struct {
	mu   sync.Mutex
	doc  *egwalker.Doc
	conn net.Conn
	pc   *netsync.PeerConn
}

func (r *replica) numEvents() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.doc.NumEvents()
}

// join connects with a summary hello and applies the answer until the
// replica holds want events.
func (m *offlineMerge) join(r *replica, docID string, want int, parent int64) error {
	var err error
	if r.conn, r.pc, err = m.e.h.dial(); err != nil {
		return err
	}
	r.conn.SetDeadline(time.Now().Add(60 * time.Second))
	hello := time.Now()
	if err := r.pc.SendHello(netsync.Hello{DocID: docID, Compact: true, Summary: r.doc.Summary()}); err != nil {
		return err
	}
	m.e.tr.add(0, parent, "netsync.send", hello, time.Now(), 0, 0)
	_, err = catchUp(m.e.tr, parent, r.pc, r.doc, want, true, hello)
	return err
}

func (m *offlineMerge) round(n int) (roundResult, error) {
	e, tr := m.e, m.e.tr
	seed := e.cfg.seed*1_000_003 + int64(n)
	docID := fmt.Sprintf("merge-%04d", n)
	fork, err := m.origin.Fork(fmt.Sprintf("online-%d", n))
	if err != nil {
		return roundResult{}, err
	}
	on := &replica{doc: fork}
	off := &replica{doc: egwalker.NewDoc(fmt.Sprintf("offline-%d", n))}
	defer func() {
		for _, r := range []*replica{on, off} {
			if r.conn != nil {
				r.conn.Close()
			}
		}
	}()

	// The online editor forks the stored document into a fresh one; the
	// offline editor joins that and goes offline.
	if err := m.join(on, docID, 0, 0); err != nil {
		return roundResult{}, fmt.Errorf("online join: %w", err)
	}
	if _, err := e.upload(0, on.pc, on.doc.Events()); err != nil {
		return roundResult{}, err
	}
	onTypist := trace.NewTypist(trace.TypistOptions{Seed: seed})
	base := on.doc.NumEvents()
	if err := m.join(off, docID, base, 0); err != nil {
		return roundResult{}, fmt.Errorf("offline join: %w", err)
	}
	if err := drainClose(off.pc, off.conn, off.doc); err != nil {
		return roundResult{}, err
	}
	off.conn = nil
	baseV := off.doc.Version()

	// Online and offline typing, concurrently.
	root := tr.id()
	var wg sync.WaitGroup
	var onErr, offErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		onErr = m.typeOnline(on, onTypist)
	}()
	go func() {
		defer wg.Done()
		offErr = typeHistory(off.doc, trace.NewTypist(trace.TypistOptions{Seed: seed + 1}), base+m.offline)
	}()
	wg.Wait()
	if err := errors.Join(onErr, offErr); err != nil {
		return roundResult{}, err
	}
	total := on.doc.NumEvents() + off.doc.NumEvents() - base

	// The online editor, still subscribed, receives the merge. It is
	// the only reader of its connection until it has everything.
	reached := make(chan error, 1)
	var mergeApply time.Duration
	go func() {
		for {
			evs, raw, done, err := on.pc.Recv()
			if err != nil || done {
				reached <- fmt.Errorf("online replica stopped receiving: %v", err)
				return
			}
			t0 := time.Now()
			on.mu.Lock()
			_, err = on.doc.Apply(evs)
			got := on.doc.NumEvents()
			on.mu.Unlock()
			d := time.Since(t0)
			if err != nil {
				reached <- err
				return
			}
			mergeApply += d
			if tr != nil {
				tr.add(0, root, "egwalker.merge_apply", t0, t0.Add(d), len(evs), len(raw))
				decodeSpan(tr, root, raw)
			}
			if got >= total {
				reached <- nil
				return
			}
		}
	}()

	// The merge: reconnect, upload the branch, catch up; done when both
	// replicas have the same fingerprint.
	t0 := time.Now()
	branch, err := off.doc.EventsSince(baseV)
	if err != nil {
		return roundResult{}, err
	}
	tr.add(0, root, "egwalker.events_since", t0, time.Now(), len(branch), 0)
	if off.conn, off.pc, err = e.h.dial(); err != nil {
		return roundResult{}, err
	}
	off.conn.SetDeadline(time.Now().Add(60 * time.Second))
	hello := time.Now()
	if err := off.pc.SendHello(netsync.Hello{DocID: docID, Compact: true, Summary: off.doc.Summary()}); err != nil {
		return roundResult{}, err
	}
	tr.add(0, root, "netsync.send", hello, time.Now(), 0, 0)
	if _, err := e.upload(root, off.pc, branch); err != nil {
		return roundResult{}, err
	}
	if _, err := catchUp(tr, root, off.pc, off.doc, total, true, hello); err != nil {
		return roundResult{}, fmt.Errorf("offline catch-up: %w", err)
	}
	select {
	case err := <-reached:
		if err != nil {
			return roundResult{}, err
		}
	case <-time.After(60 * time.Second):
		return roundResult{}, fmt.Errorf("online replica has %d of %d events after 60s", on.numEvents(), total)
	}
	fpOn := on.doc.Fingerprint()
	fpOff := off.doc.Fingerprint()
	end := time.Now()
	if fpOn != fpOff {
		return roundResult{}, fmt.Errorf("replicas diverged after the merge: %x vs %x", fpOn, fpOff)
	}
	e.lat.add(msOf(end.Sub(t0)))
	e.mergeApply.add(msOf(mergeApply))
	e.ops.Add(int64(len(branch)))
	tr.add(root, 0, "op.merge", t0, end, len(branch), 0)

	if err := drainClose(off.pc, off.conn, off.doc); err != nil {
		return roundResult{}, err
	}
	off.conn = nil
	return roundResult{doc: docID, fp: fpOn, last: on.doc}, nil
}

// typeOnline types mergeOnline events open-loop at mergeOnlineRate,
// uploading each burst; the phase's offered ratio is recorded.
func (m *offlineMerge) typeOnline(on *replica, t *trace.Typist) error {
	p := newPacer(mergeOnlineRate, m.stop)
	p.late = &m.e.late
	sent, last := 0, 0
	var issued time.Time
	for sent < m.online {
		if _, ok := p.wait(); !ok {
			break
		}
		issued = time.Now()
		on.mu.Lock()
		events, err := edit(on.doc, t)
		on.mu.Unlock()
		if err != nil {
			return err
		}
		if _, err := m.e.upload(0, on.pc, events); err != nil {
			return err
		}
		sent, last = sent+len(events), len(events)
		p.done(len(events))
	}
	// On schedule, the last burst was issued when the units before it
	// were due; lateness makes the due count exceed what was sent.
	if sent > 0 {
		m.e.phase(float64(sent), p.dueUnits(issued)+float64(last))
	}
	return nil
}

func (m *offlineMerge) finish() error {
	<-m.done
	return nil
}

// verify checks every round's document on the server against the
// fingerprint both replicas agreed on, and the last round's online
// replica against a fresh Doc rebuilt from it and the server's events.
func (m *offlineMerge) verify() error {
	m.mu.Lock()
	rounds := append([]roundResult(nil), m.rounds...)
	m.mu.Unlock()
	if len(rounds) == 0 {
		return errors.New("no round completed")
	}
	last := rounds[len(rounds)-1]
	if m.e.cfg.diverge {
		if err := last.last.Insert(0, "#"); err != nil {
			return err
		}
	}
	for _, r := range rounds {
		var fp uint64
		var events []egwalker.Event
		err := m.e.h.srv.With(r.doc, func(ds *store.DocStore) error {
			var err error
			fp, err = ds.Fingerprint()
			if r.last != nil {
				events = ds.Events()
			}
			return err
		})
		if err != nil {
			return err
		}
		if r.last == nil {
			if fp != r.fp {
				return fmt.Errorf("%s: server fingerprint %x, replicas agreed on %x", r.doc, fp, r.fp)
			}
			continue
		}
		server := egwalker.NewDoc("server-copy")
		if _, err := server.Apply(events); err != nil {
			return err
		}
		if err := converged(map[string]*egwalker.Doc{"online replica": r.last, "server events": server}, map[string]uint64{"server replica": fp, "offline replica": r.fp}); err != nil {
			return fmt.Errorf("%s: %w", r.doc, err)
		}
	}
	return nil
}

func (m *offlineMerge) diskBytesPerEvent() (float64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.rounds) == 0 {
		return 0, nil
	}
	return diskPerEvent(m.e.h.srv, []string{m.rounds[len(m.rounds)-1].doc})
}

func (m *offlineMerge) close() error {
	if m.done != nil {
		<-m.done
	}
	return m.e.h.close()
}
