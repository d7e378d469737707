package store

import (
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"egwalker"
	"egwalker/netsync"
)

// TestSlowSubscriberSeverAndResume is the regression test for the
// slow-peer sever policy: when one subscriber stops draining its
// outbox, that subscriber alone is severed — other peers keep
// receiving every event — and the severed client reconverges by
// reconnecting with an incremental resume instead of a full snapshot.
func TestSlowSubscriberSeverAndResume(t *testing.T) {
	// Every event comes from its own agent, so coalescing cannot fold
	// a backlog into one run: a coalesced batch costs ~16 bytes per
	// event, its agent name included. The per-peer budget is sized
	// around that: the 100 events B drains while alive can never
	// overrun it even if they all queue at once (~1.6 KiB coalesced),
	// while the 300-event backlog after B stalls (~5 KiB coalesced)
	// reliably does.
	srv := newTestServer(t, ServerOptions{FlushInterval: time.Millisecond, OutboxBytesPerPeer: 3072})
	const docID = "sever-doc"
	const totalEvents = 400
	const stallAt = 100

	// B: the peer that will go slow. Connects first; reads a while,
	// then stops draining.
	bcs, bss := net.Pipe()
	defer bcs.Close()
	serveOne(t, srv, bss)
	bdoc := egwalker.NewDoc("b")
	bpc := netsync.NewPeerConn(bcs)
	if err := bpc.SendHello(netsync.Hello{DocID: docID, Compact: true}); err != nil {
		t.Fatal(err)
	}

	// A: a healthy peer that drains promptly.
	acs, ass := net.Pipe()
	defer acs.Close()
	serveOne(t, srv, ass)
	adoc := egwalker.NewDoc("a")
	apc := netsync.NewPeerConn(acs)
	if err := apc.SendHello(netsync.Hello{DocID: docID, Compact: true}); err != nil {
		t.Fatal(err)
	}
	aDone := make(chan error, 1)
	var aSeen atomic.Int64 // events A has applied
	go func() {
		for adoc.NumEvents() < totalEvents {
			evs, _, done, err := apc.Recv()
			if err != nil || done {
				aDone <- fmt.Errorf("a: done=%v err=%v at %d events", done, err, adoc.NumEvents())
				return
			}
			if _, err := adoc.Apply(evs); err != nil {
				aDone <- err
				return
			}
			aSeen.Store(int64(adoc.NumEvents()))
		}
		aDone <- nil
	}()

	// C: the writer, uploading one single-event batch at a time — each
	// event from a new agent — so the slow peer's outbox fills batch by
	// batch. C must read its (empty)
	// initial snapshot frame first — net.Pipe is unbuffered.
	ccs, css := net.Pipe()
	defer ccs.Close()
	serveOne(t, srv, css)
	cdoc := egwalker.NewDoc("c")
	cpc := netsync.NewPeerConn(ccs)
	if err := cpc.SendHello(netsync.Hello{DocID: docID, Compact: true}); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := cpc.Recv(); err != nil {
		t.Fatal(err)
	}
	// C writes in three phases: stallAt events while B drains; once B
	// has gone silent, one more; and — only once B's writer has taken
	// that one off its queue — the rest. The pauses make the sever
	// deterministic: without the first, C could finish before B
	// stalls, and a backlog that stops growing never overflows the
	// budget (severing happens on push); without the second, a writer
	// scheduled late could drain much of the backlog into its blocked
	// send, where it no longer counts against the budget.
	bStalled := make(chan struct{})
	bWriterBlocked := make(chan struct{})
	cErr := make(chan error, 1)
	go func() {
		for i := 0; i < totalEvents; i++ {
			switch i {
			case stallAt:
				<-bStalled
			case stallAt + 1:
				<-bWriterBlocked
			}
			// Lockstep with A: the healthy peer is prompt by
			// construction, so only B's backlog grows, however the
			// goroutines are scheduled on a loaded machine.
			for deadline := time.Now().Add(5 * time.Second); aSeen.Load() < int64(i); {
				if time.Now().After(deadline) {
					cErr <- fmt.Errorf("healthy peer stuck at %d of %d events", aSeen.Load(), i)
					return
				}
				time.Sleep(50 * time.Microsecond)
			}
			evs := []egwalker.Event{{
				ID:      egwalker.EventID{Agent: fmt.Sprintf("typist-%04d", i)},
				Parents: cdoc.Version(),
				Insert:  true,
				Pos:     i,
				Content: 'x',
			}}
			_, err := cdoc.Apply(evs)
			if err == nil {
				err = cpc.SendEvents(evs)
			}
			if err != nil {
				cErr <- err
				return
			}
		}
		cErr <- nil
	}()

	// B drains the first stallAt events, then goes silent.
	for bdoc.NumEvents() < stallAt {
		evs, _, done, err := bpc.Recv()
		if err != nil || done {
			t.Fatalf("b: done=%v err=%v at %d events", done, err, bdoc.NumEvents())
		}
		if _, err := bdoc.Apply(evs); err != nil {
			t.Fatal(err)
		}
	}
	close(bStalled)
	// C's next batch is fanned out under the entry lock, after
	// BatchesApplied counts it. Once every outbox is empty again, B's
	// writer holds that frame in a send B will never read.
	waitFor := time.Now().Add(5 * time.Second)
	for !outboxesDrained(srv, docID, stallAt+1) {
		if time.Now().After(waitFor) {
			t.Fatal("B's writer never took the first post-stall frame")
		}
		time.Sleep(time.Millisecond)
	}
	close(bWriterBlocked)

	if err := <-cErr; err != nil {
		t.Fatalf("writer: %v", err)
	}
	// The healthy peer must receive everything despite B stalling.
	if err := <-aDone; err != nil {
		t.Fatalf("healthy peer starved: %v", err)
	}
	if adoc.Text() != cdoc.Text() {
		t.Fatal("healthy peer diverged")
	}

	// B alone must have been severed (its outbox filled), and the
	// sever must close B's connection so its next read fails rather
	// than blocking forever.
	deadline := time.Now().Add(5 * time.Second)
	for srv.MetricsSnapshot().PeersSevered == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slow peer never severed")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if n := srv.MetricsSnapshot().PeersSevered; n != 1 {
		t.Fatalf("%d peers severed, want only the slow one", n)
	}
	bcs.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, _, _, err := bpc.Recv(); err == nil {
		// Drain anything buffered before the sever; the connection
		// must still die promptly.
		for {
			if _, _, _, err := bpc.Recv(); err != nil {
				break
			}
		}
	}

	// B reconverges via incremental resume: the catch-up carries
	// exactly the events B is missing, not the full history.
	before := bdoc.NumEvents()
	if before >= totalEvents {
		t.Fatalf("setup: slow peer already has all %d events", before)
	}
	rcs, rss := net.Pipe()
	defer rcs.Close()
	serveOne(t, srv, rss)
	rpc := netsync.NewPeerConn(rcs)
	if err := rpc.SendHello(netsync.Hello{DocID: docID, Compact: true, Summary: bdoc.Summary()}); err != nil {
		t.Fatal(err)
	}
	got := recvInto(t, rpc, bdoc, totalEvents)
	if want := totalEvents - before; got != want {
		t.Fatalf("resume shipped %d events, want %d (full snapshot would be %d)", got, want, totalEvents)
	}
	if bdoc.Text() != cdoc.Text() {
		t.Fatal("severed peer failed to reconverge")
	}
}

// outboxesDrained reports whether the server has fanned out at least
// batches uploads on docID and every subscriber's outbox is empty.
func outboxesDrained(srv *Server, docID string, batches int64) bool {
	if srv.MetricsSnapshot().BatchesApplied < batches {
		return false
	}
	srv.mu.Lock()
	e := srv.open[docID]
	srv.mu.Unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, p := range e.peers {
		if p.ob.depth() > 0 {
			return false
		}
	}
	return true
}
