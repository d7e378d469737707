package main

import (
	"context"
	"fmt"
	"net"
	"runtime/pprof"
	"sync"
	"time"

	"egwalker/netsync"
	"egwalker/store"
)

// harness is one store.Server with shipped defaults, served over
// loopback TCP from this process. Goroutines the server starts inherit
// the pprof label of the goroutine that started them, so NewServer runs
// under layer=server.bg (flusher, compactor) and each ServeConn under
// layer=server.conn (reader and outbox writer): a CPU profile then
// splits server time from client and load-generator time without any
// instrumentation inside the server.
type harness struct {
	srv  *store.Server
	ln   net.Listener
	addr string

	// relay, when set, wraps every accepted connection to time the
	// server's relay path (traced runs only).
	relay *relayIndex

	mu    sync.Mutex
	conns map[net.Conn]struct{}
	wg    sync.WaitGroup
}

// serverOptions are the options every workload runs with: the zero
// value, i.e. the shipped defaults (reported in the provenance block).
var serverOptions = store.ServerOptions{}

func newHarness(dir string, relay *relayIndex) (*harness, error) {
	h := &harness{relay: relay, conns: make(map[net.Conn]struct{})}
	var err error
	pprof.Do(context.Background(), pprof.Labels("layer", "server.bg"), func(context.Context) {
		h.srv, err = store.NewServer(dir, serverOptions)
	})
	if err != nil {
		return nil, fmt.Errorf("starting server: %w", err)
	}
	h.ln, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		h.srv.Close()
		return nil, fmt.Errorf("listening: %w", err)
	}
	h.addr = h.ln.Addr().String()
	h.wg.Add(1)
	go h.accept()
	return h, nil
}

func (h *harness) accept() {
	defer h.wg.Done()
	for {
		c, err := h.ln.Accept()
		if err != nil {
			return
		}
		var sc net.Conn = c
		if h.relay != nil {
			sc = h.relay.wrap(c)
		}
		h.mu.Lock()
		h.conns[c] = struct{}{}
		h.mu.Unlock()
		h.wg.Add(1)
		go pprof.Do(context.Background(), pprof.Labels("layer", "server.conn"), func(context.Context) {
			defer h.wg.Done()
			// A connection ends when the client hangs up or sends DONE;
			// either way its error is the client's business, and the
			// workloads check delivery end to end.
			_ = h.srv.ServeConn(sc)
			sc.Close()
			h.mu.Lock()
			delete(h.conns, c)
			h.mu.Unlock()
		})
	}
}

// dial opens a client connection and wraps it for frame-level use.
func (h *harness) dial() (net.Conn, *netsync.PeerConn, error) {
	c, err := net.DialTimeout("tcp", h.addr, 5*time.Second)
	if err != nil {
		return nil, nil, err
	}
	return c, netsync.NewPeerConn(c), nil
}

// close stops accepting, hangs up every server-side connection, closes
// the server, and waits for every goroutine the harness started. The
// data directory stays (the next set-up repetition reuses it).
func (h *harness) close() error {
	h.ln.Close()
	h.mu.Lock()
	for c := range h.conns {
		c.Close()
	}
	h.mu.Unlock()
	err := h.srv.Close()
	h.wg.Wait()
	return err
}
