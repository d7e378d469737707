package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"egwalker"
	"egwalker/internal/trace"
	"egwalker/netsync"
	"egwalker/store"
)

// doc-sessions: short editing sessions over a population of stored
// documents larger than the server's journal cap (MaxJournalDocs 1024)
// and far larger than its materialized cap (MaxOpenDocs 64). Sessions
// arrive open-loop at sessionRate per second and pick a document by
// Zipf; at most sessionConns run at once. A session with a cached copy
// of its document loads it and resumes with a summary hello; one
// without joins cold (the server streams the stored blocks). Either
// way it types a burst like an author of the paper's S1 trace (two
// authors taking turns; trace.S1), uploads it, saves its copy and
// leaves. The operation is one session; its latency runs from when the
// session was due until its document is usable (loaded, caught up and
// applied).
//
// The popularity exponent and the cached and stale shares below have no
// measured source for documents; they are assumptions. Request
// popularity on the web is Zipf-like with exponents a little below 1
// (Breslau et al., "Web Caching and Zipf-like Distributions", INFOCOM
// 1999); math/rand's Zipf needs one above 1, so 1.1 stands in, slightly
// more skewed.
const (
	sessionRate     = 100 // sessions per second
	sessionConns    = 2
	sessionDocs     = 2000
	sessionDocsTiny = 40
	// History sizes are log-uniform over two orders of magnitude,
	// drawn from sessionSizes distinct stored histories.
	sessionMinEvents = 30
	sessionMaxEvents = 3000
	sessionSizes     = 32
	// cachedShare of the documents start with a client-side copy that
	// is missing the last staleShare of the stored history (assumed:
	// half the documents were opened on this device before, and those
	// copies missed the last tenth of the editing).
	cachedShare = 0.5
	staleShare  = 0.1
	// fillDocs is how many distinct documents the warm-up opens: more
	// than the server's journal cap (MaxJournalDocs, 1024 by default),
	// so measured sessions meet a long-running server's steady state —
	// a full journal cache that evicts as new documents are opened.
	fillDocs = 1100
	// fillIdx numbers warm-up sessions apart from measured ones (the
	// session index names the session's agent).
	fillIdx = 1 << 30
)

type docSessions struct {
	e    *env
	docs []string
	zipf *rand.Zipf
	rng  *rand.Rand // dispatch decisions; used by the dispatcher only

	mu      sync.Mutex
	cache   map[string][]byte // saved client copies
	acked   map[string]int    // events the server is known to hold
	touched map[string]bool

	queue chan session
	wg    sync.WaitGroup
}

type session struct {
	idx int
	doc string
	due time.Time
}

// prepareDocSessions stores the document population and builds the
// clients' cached copies.
func prepareDocSessions(e *env) (setupFunc, error) {
	n, maxEvents := sessionDocs, sessionMaxEvents
	if e.cfg.tiny {
		n, maxEvents = sessionDocsTiny, 300
	}
	rng := rand.New(rand.NewSource(e.cfg.seed))
	type history struct {
		events []egwalker.Event
		raw    []byte
		cached []byte // saved copy of the stale prefix
	}
	hist := make([]history, sessionSizes)
	firstOfSize := make(map[int]string) // history index -> a document with it
	for k := range hist {
		size := int(float64(sessionMinEvents) * math.Pow(float64(maxEvents)/sessionMinEvents, float64(k)/(sessionSizes-1)))
		d := egwalker.NewDoc(fmt.Sprintf("author-%d", k))
		if err := typeHistory(d, trace.NewTypist(trace.TypistOptions{Seed: e.cfg.seed*1000 + int64(k)}), size); err != nil {
			return nil, err
		}
		h := history{events: d.Events()}
		var err error
		if h.raw, err = egwalker.MarshalEventsCompact(h.events); err != nil {
			return nil, err
		}
		prefix := egwalker.NewDoc("cache")
		if _, err := prefix.Apply(h.events[:int(float64(len(h.events))*(1-staleShare))]); err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := prefix.Save(&buf, egwalker.SaveOptions{}); err != nil {
			return nil, err
		}
		h.cached = buf.Bytes()
		hist[k] = h
	}
	ds := &docSessions{
		e:       e,
		rng:     rand.New(rand.NewSource(e.cfg.seed + 1)),
		cache:   make(map[string][]byte),
		acked:   make(map[string]int),
		touched: make(map[string]bool),
	}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("doc-%04d", i)
		k := rng.Intn(len(hist))
		h := hist[k]
		if _, ok := firstOfSize[k]; !ok {
			firstOfSize[k] = id
		}
		if err := populate(e.dir, id, h.events, h.raw, false); err != nil {
			return nil, fmt.Errorf("populating %s: %w", id, err)
		}
		ds.acked[id] = len(h.events)
		if rng.Float64() < cachedShare {
			ds.cache[id] = h.cached
		}
		ds.docs = append(ds.docs, id)
	}
	// Popularity is independent of history size: shuffle before
	// ranking.
	rng.Shuffle(len(ds.docs), func(i, j int) { ds.docs[i], ds.docs[j] = ds.docs[j], ds.docs[i] })
	ds.zipf = rand.NewZipf(ds.rng, 1.1, 1, uint64(n-1))
	// Set-up ends when the first clients are served: one after another,
	// a cold join of one document of each stored history size (the same
	// sizes whatever the seed, so set-up does about the same work on
	// every run; tiny populations may miss a few sizes).
	var first []string
	for k := range hist {
		if id, ok := firstOfSize[k]; ok {
			first = append(first, id)
		}
	}
	return func() (instance, error) {
		if err := e.startServer(); err != nil {
			return nil, err
		}
		for _, id := range first {
			if err := ds.coldJoin(id, ds.acked[id]); err != nil {
				e.h.close()
				return nil, fmt.Errorf("first join of %s: %w", id, err)
			}
		}
		return ds, nil
	}, nil
}

// coldJoin joins docID with an empty copy, catches up and leaves.
func (ds *docSessions) coldJoin(docID string, want int) error {
	conn, pc, err := ds.e.h.dial()
	if err != nil {
		return err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	doc := egwalker.NewDoc("first")
	if err := pc.SendHello(netsync.Hello{DocID: docID, Compact: true, Summary: doc.Summary()}); err != nil {
		return err
	}
	if _, err := catchUp(nil, 0, pc, doc, want, false, time.Now()); err != nil {
		return err
	}
	return drainClose(pc, conn, doc)
}

func (ds *docSessions) start(stop <-chan struct{}) {
	ds.fill()
	// Sized to hold every session a run can dispatch, so the open-loop
	// dispatcher never blocks on busy workers: queueing shows up as
	// join latency, not as a lower offered rate.
	ds.queue = make(chan session, 1<<16)
	p := ds.e.pacer(sessionRate, stop)
	ds.wg.Add(1)
	go func() {
		defer ds.wg.Done()
		defer close(ds.queue)
		for i := 0; ; i++ {
			due, ok := p.wait()
			if !ok {
				return
			}
			ds.e.attempted.Add(1)
			ds.queue <- session{idx: i, doc: ds.docs[ds.zipf.Uint64()], due: due}
			p.done(1)
		}
	}()
	for w := 0; w < sessionConns; w++ {
		ds.wg.Add(1)
		go func() {
			defer ds.wg.Done()
			for s := range ds.queue {
				if err := ds.run(s); err != nil {
					ds.e.fail(1, "session %d on %s: %v", s.idx, s.doc, err)
				}
			}
		}()
	}
}

// fill runs one session on each of fillDocs distinct documents, as fast
// as the session connections allow (it is warm-up, not measured).
func (ds *docSessions) fill() {
	order := ds.rng.Perm(len(ds.docs))[:min(len(ds.docs), fillDocs)]
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < sessionConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(order) {
					return
				}
				s := session{idx: fillIdx + i, doc: ds.docs[order[i]], due: time.Now()}
				ds.e.attempted.Add(1)
				if err := ds.run(s); err != nil {
					ds.e.fail(1, "warm-up session on %s: %v", s.doc, err)
				}
			}
		}()
	}
	wg.Wait()
}

// run is one session.
func (ds *docSessions) run(s session) error {
	e, tr := ds.e, ds.e.tr
	root := tr.id()
	ds.mu.Lock()
	cached, resume := ds.cache[s.doc]
	want := ds.acked[s.doc]
	ds.touched[s.doc] = true
	ds.mu.Unlock()

	agent := fmt.Sprintf("s%d", s.idx)
	doc, err := openCopy(tr, root, cached, agent)
	if err != nil {
		return err
	}
	var summary egwalker.VersionSummary
	if resume {
		t0 := time.Now()
		summary = doc.Summary()
		tr.add(0, root, "egwalker.summary", t0, time.Now(), 0, 0)
	}
	conn, pc, err := e.h.dial()
	if err != nil {
		return err
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(20 * time.Second)); err != nil {
		return err
	}
	hello := time.Now()
	if err := pc.SendHello(netsync.Hello{DocID: s.doc, Compact: true, Summary: summary}); err != nil {
		return err
	}
	tr.add(0, root, "netsync.send", hello, time.Now(), 0, 0)
	caught, err := catchUp(tr, root, pc, doc, want, resume, hello)
	if err != nil {
		return err
	}
	e.lat.add(msSince(s.due))
	tr.add(root, 0, "op.session", s.due, caught, 0, 0)

	t0 := time.Now()
	events, err := edit(doc, trace.TypistFromSpec(trace.S1, e.cfg.seed<<20+int64(s.idx)))
	if err != nil {
		return err
	}
	tr.add(0, 0, "egwalker.edit", t0, time.Now(), len(events), 0)
	if _, err := e.upload(0, pc, events); err != nil {
		return err
	}
	if err := drainClose(pc, conn, doc); err != nil {
		return err
	}
	t1 := time.Now()
	var buf bytes.Buffer
	if err := doc.Save(&buf, egwalker.SaveOptions{}); err != nil {
		return err
	}
	tr.add(0, 0, "egwalker.save", t1, time.Now(), 0, buf.Len())
	ds.mu.Lock()
	ds.cache[s.doc] = buf.Bytes()
	ds.acked[s.doc] = max(ds.acked[s.doc], doc.NumEvents())
	ds.mu.Unlock()
	e.ops.Add(1)
	return nil
}

// openCopy loads a cached copy, or starts an empty one.
func openCopy(tr *tracer, parent int64, cached []byte, agent string) (*egwalker.Doc, error) {
	if cached == nil {
		return egwalker.NewDoc(agent), nil
	}
	t0 := time.Now()
	doc, err := egwalker.Load(bytes.NewReader(cached), agent)
	if err != nil {
		return nil, fmt.Errorf("loading cached copy: %w", err)
	}
	tr.add(0, parent, "egwalker.load", t0, time.Now(), 0, len(cached))
	return doc, nil
}

// catchUp receives the server's answer to a hello: its first frame,
// which the server always sends (empty when the copy is up to date),
// and further frames until doc holds at least want events. A summary
// resume must ship exactly the missing diff: any event the copy already
// held is an error.
func catchUp(tr *tracer, parent int64, pc *netsync.PeerConn, doc *egwalker.Doc, want int, resume bool, hello time.Time) (time.Time, error) {
	first := true
	var bytes int
	for first || doc.NumEvents() < want {
		evs, raw, done, err := pc.Recv()
		if err != nil {
			return time.Time{}, fmt.Errorf("catching up (%d of %d events): %w", doc.NumEvents(), want, err)
		}
		if done {
			return time.Time{}, fmt.Errorf("server ended the stream at %d of %d events", doc.NumEvents(), want)
		}
		if first {
			tr.add(0, parent, "netsync.first_frame", hello, time.Now(), 0, 0)
			first = false
		}
		bytes += len(raw) + 5
		if resume {
			if err := allNew(doc, evs); err != nil {
				return time.Time{}, fmt.Errorf("summary catch-up: %w", err)
			}
		}
		decodeSpan(tr, parent, raw)
		t0 := time.Now()
		if _, err := doc.Apply(evs); err != nil {
			return time.Time{}, err
		}
		tr.add(0, parent, "egwalker.apply", t0, time.Now(), len(evs), len(raw))
	}
	done := time.Now()
	tr.add(0, parent, "netsync.catchup", hello, done, 0, bytes)
	return done, nil
}

func (ds *docSessions) finish() error {
	ds.wg.Wait()
	return nil
}

// verify reconnects every document a session touched once more with
// its cached copy and checks the copy, the server's replica and a fresh
// Doc rebuilt from their union agree.
func (ds *docSessions) verify() error {
	docs := ds.touchedDocs()
	if ds.e.cfg.diverge && len(docs) > 0 {
		// Self-test: a cached copy with an edit the server never saw.
		d, err := egwalker.Load(bytes.NewReader(ds.cache[docs[0]]), "rogue")
		if err != nil {
			return err
		}
		if err := d.Insert(0, "#"); err != nil {
			return err
		}
		var buf bytes.Buffer
		if err := d.Save(&buf, egwalker.SaveOptions{}); err != nil {
			return err
		}
		ds.cache[docs[0]] = buf.Bytes()
	}
	for i, id := range docs {
		var serverEvents []egwalker.Event
		var serverFP uint64
		if err := ds.e.h.srv.With(id, func(d *store.DocStore) error {
			serverEvents = d.Events()
			var err error
			serverFP, err = d.Fingerprint()
			return err
		}); err != nil {
			return err
		}
		cp, err := egwalker.Load(bytes.NewReader(ds.cache[id]), fmt.Sprintf("verify-%d", i))
		if err != nil {
			return err
		}
		conn, pc, err := ds.e.h.dial()
		if err != nil {
			return err
		}
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		err = pc.SendHello(netsync.Hello{DocID: id, Compact: true, Summary: cp.Summary()})
		if err == nil {
			_, err = catchUp(nil, 0, pc, cp, len(serverEvents), true, time.Now())
		}
		conn.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		server := egwalker.NewDoc("server-copy")
		if _, err := server.Apply(serverEvents); err != nil {
			return err
		}
		if err := converged(map[string]*egwalker.Doc{"client copy of " + id: cp, "server events of " + id: server}, map[string]uint64{"server replica of " + id: serverFP}); err != nil {
			return err
		}
	}
	return nil
}

func (ds *docSessions) touchedDocs() []string {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	var docs []string
	for id := range ds.touched {
		docs = append(docs, id)
	}
	sort.Strings(docs)
	return docs
}

func (ds *docSessions) diskBytesPerEvent() (float64, error) {
	docs := ds.touchedDocs()
	if len(docs) > 50 {
		docs = docs[:50]
	}
	return diskPerEvent(ds.e.h.srv, docs)
}

func (ds *docSessions) close() error {
	if ds.e.h == nil {
		return nil
	}
	return ds.e.h.close()
}
